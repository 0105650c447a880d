// Package threadfree is the golden suite for the threadfree analyzer:
// a handler literal passed to RegisterIRQOn that ignores its *Thread
// should be registered in the thread-free form instead.
package threadfree

// Thread is the blocking identity every blocking primitive takes.
type Thread struct{}

// Block stands for a blocking primitive.
func (t *Thread) Block() {}

// TrapFrame is the delivered event.
type TrapFrame struct{ CPU int }

// Service is the event service.
type Service struct{}

// RegisterIRQOn registers a handler that takes its thread.
func (s *Service) RegisterIRQOn(line int, h func(TrapFrame, *Thread)) error { return nil }

// RegisterThreadFreeIRQOn registers a handler that takes none.
func (s *Service) RegisterThreadFreeIRQOn(line int, h func(TrapFrame)) error { return nil }

func register(s *Service, shared func(TrapFrame, *Thread)) {
	_ = s.RegisterIRQOn(1, func(TrapFrame, *Thread) {})                // want `handler ignores its \*Thread`
	_ = s.RegisterIRQOn(2, func(f TrapFrame, _ *Thread) { _ = f.CPU }) // want `handler ignores its \*Thread`
	_ = s.RegisterIRQOn(3, func(f TrapFrame, t *Thread) {})            // want `register it with RegisterThreadFreeIRQOn`

	// Handlers that use their thread keep the carrier.
	_ = s.RegisterIRQOn(4, func(f TrapFrame, t *Thread) { t.Block() })
	_ = s.RegisterIRQOn(5, func(f TrapFrame, t *Thread) {
		if t != nil {
			t.Block()
		}
	})

	// The thread-free form and a handler passed by name are not
	// literals this check can judge.
	_ = s.RegisterThreadFreeIRQOn(6, func(TrapFrame) {})
	_ = s.RegisterIRQOn(7, shared)

	//paralint:ignore threadfree fixture keeps a carrier on purpose
	_ = s.RegisterIRQOn(8, func(TrapFrame, *Thread) {})
}
