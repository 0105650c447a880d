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
