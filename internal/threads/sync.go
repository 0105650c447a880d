package threads

import "errors"

// Synchronization errors.
var (
	ErrNotOwner  = errors.New("threads: caller does not hold the mutex")
	ErrQueueSize = errors.New("threads: queue capacity must be positive")
)

// Mutex is a blocking mutual-exclusion lock for simulated threads.
// Unlock hands the lock directly to the oldest waiter, so the lock is
// fair and a woken thread never loses a race for it.
type Mutex struct {
	s       *Scheduler
	held    bool
	owner   *Thread
	waiters []*Thread
}

// NewMutex builds a mutex managed by s.
func NewMutex(s *Scheduler) *Mutex {
	return &Mutex{s: s}
}

// Lock acquires the mutex, blocking the thread if it is held. A
// proto-thread that must block is promoted.
func (m *Mutex) Lock(t *Thread) {
	s := m.s
	s.mu.Lock()
	if !m.held {
		m.held = true
		m.owner = t
		s.mu.Unlock()
		return
	}
	t.blockLocked(func() {
		m.waiters = append(m.waiters, t)
	})
}

// tryLock acquires the mutex without blocking; it reports success.
func (m *Mutex) tryLock(t *Thread) bool {
	s := m.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if m.held {
		return false
	}
	m.held = true
	m.owner = t
	return true
}

// Unlock releases the mutex, handing it to the oldest waiter if any.
func (m *Mutex) Unlock(t *Thread) error {
	s := m.s
	s.mu.Lock()
	defer s.mu.Unlock()
	return m.unlockLocked(t)
}

func (m *Mutex) unlockLocked(t *Thread) error {
	if !m.held || m.owner != t {
		return ErrNotOwner
	}
	if len(m.waiters) > 0 {
		next := m.waiters[0]
		m.waiters = m.waiters[1:]
		m.owner = next // direct handoff; stays held
		m.s.wakeLocked(next)
		return nil
	}
	m.held = false
	m.owner = nil
	return nil
}

// cond is a condition variable tied to a Mutex.
type cond struct {
	m       *Mutex
	waiters []*Thread
}

// newCond builds a condition variable over m.
func newCond(m *Mutex) *cond {
	return &cond{m: m}
}

// wait atomically releases the mutex and blocks until the thread is
// signalled, then reacquires the mutex before returning.
func (c *cond) wait(t *Thread) error {
	s := c.m.s
	s.mu.Lock()
	if !c.m.held || c.m.owner != t {
		s.mu.Unlock()
		return ErrNotOwner
	}
	if err := c.m.unlockLocked(t); err != nil {
		s.mu.Unlock()
		return err
	}
	t.blockLocked(func() {
		c.waiters = append(c.waiters, t)
	})
	//paralint:ignore lockorder blockLocked parks the thread and releases s.mu before Lock reacquires it
	c.m.Lock(t)
	return nil
}

// signal wakes the oldest waiter, if any. The caller should hold the
// mutex but this is not enforced (as with sync.Cond).
func (c *cond) signal() {
	s := c.m.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(c.waiters) == 0 {
		return
	}
	t := c.waiters[0]
	c.waiters = c.waiters[1:]
	s.wakeLocked(t)
}

// broadcast wakes every waiter.
func (c *cond) broadcast() {
	s := c.m.s
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range c.waiters {
		s.wakeLocked(t)
	}
	c.waiters = nil
}

// semaphore is a counting semaphore.
type semaphore struct {
	s       *Scheduler
	count   int
	waiters []*Thread
}

// newSemaphore builds a semaphore with the given initial count.
func newSemaphore(s *Scheduler, initial int) *semaphore {
	return &semaphore{s: s, count: initial}
}

// p (down) decrements the semaphore, blocking while it is zero.
func (sem *semaphore) p(t *Thread) {
	s := sem.s
	s.mu.Lock()
	if sem.count > 0 {
		sem.count--
		s.mu.Unlock()
		return
	}
	t.blockLocked(func() {
		sem.waiters = append(sem.waiters, t)
	})
}

// v (up) increments the semaphore, waking one waiter if any. The count
// is transferred directly to the woken thread.
func (sem *semaphore) v() {
	s := sem.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(sem.waiters) > 0 {
		t := sem.waiters[0]
		sem.waiters = sem.waiters[1:]
		s.wakeLocked(t)
		return
	}
	sem.count++
}

// value reports the current count (waiters imply zero).
func (sem *semaphore) value() int {
	sem.s.mu.Lock()
	defer sem.s.mu.Unlock()
	return sem.count
}

// Queue is a bounded blocking FIFO of arbitrary items — the mailbox
// primitive used by the active-message example.
type Queue struct {
	s     *Scheduler
	cap   int
	items []any
	ne    []*Thread // waiting for not-empty
}

// NewQueue builds a queue of the given capacity.
func NewQueue(s *Scheduler, capacity int) (*Queue, error) {
	if capacity <= 0 {
		return nil, ErrQueueSize
	}
	return &Queue{s: s, cap: capacity}, nil
}

// TryPush appends without blocking; it reports success.
func (q *Queue) TryPush(item any) bool {
	s := q.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(q.items) >= q.cap {
		return false
	}
	q.items = append(q.items, item)
	if len(q.ne) > 0 {
		w := q.ne[0]
		q.ne = q.ne[1:]
		s.wakeLocked(w)
	}
	return true
}

// Pop removes the oldest item, blocking while the queue is empty.
func (q *Queue) Pop(t *Thread) any {
	s := q.s
	for {
		s.mu.Lock()
		if len(q.items) > 0 {
			item := q.items[0]
			q.items = q.items[1:]
			s.mu.Unlock()
			return item
		}
		t.blockLocked(func() {
			q.ne = append(q.ne, t)
		})
	}
}
