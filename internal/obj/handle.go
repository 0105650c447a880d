package obj

import "fmt"

// MethodHandle is a pre-resolved method binding: the bind-once /
// invoke-many pattern the paper's late binding implies. A handle is
// obtained from Invoker.Resolve; its Call dispatches by slot index
// with no per-call name lookup or lock. Handles stay live through
// rebinding — a slot rebound after Resolve is observed by the next
// Call, exactly as a call by name (Invoke) would observe it.
//
// The zero MethodHandle is invalid; Call on it fails.
type MethodHandle struct {
	decl *MethodDecl
	call Method
	// into is the buffer-threading dispatch form: results are appended
	// to a caller-provided slice, so a method bound with BindInto and
	// called with CallInto completes without allocating. Nil for
	// Invoker implementations that only supply a plain dispatch.
	into MethodInto
	// batcher, when non-nil, can execute a group of calls through this
	// handle (and its siblings) in one protection crossing; bkey is the
	// batcher-private per-handle routing key. See Batch.
	batcher Batcher
	bkey    any
}

// NewMethodHandle builds a handle from a declaration and a dispatch
// function. It is intended for Invoker implementations (interposers,
// cross-domain proxies) that supply their own dispatch path; dispatch
// receives the arguments exactly as passed to Call, after arity
// validation.
func NewMethodHandle(decl *MethodDecl, dispatch Method) MethodHandle {
	if decl == nil || dispatch == nil {
		return MethodHandle{}
	}
	return MethodHandle{decl: decl, call: dispatch}
}

// NewBatchableHandle is NewMethodHandle for Invoker implementations
// that can also execute grouped calls in one crossing: into (optional)
// is the buffer-threading dispatch form, batcher executes batch groups
// and key is the batcher's private routing key for this handle.
func NewBatchableHandle(decl *MethodDecl, dispatch Method, into MethodInto, batcher Batcher, key any) MethodHandle {
	if decl == nil || dispatch == nil {
		return MethodHandle{}
	}
	return MethodHandle{decl: decl, call: dispatch, into: into, batcher: batcher, bkey: key}
}

// Valid reports whether the handle is usable.
func (h MethodHandle) Valid() bool { return h.call != nil }

// Decl returns the type information of the resolved method.
func (h MethodHandle) Decl() *MethodDecl { return h.decl }

// Call invokes the resolved method. It validates argument arity
// before dispatch and result arity after a successful return, using
// the declaration captured at resolve time.
func (h MethodHandle) Call(args ...any) ([]any, error) {
	if h.call == nil {
		return nil, fmt.Errorf("%w: call through zero method handle", ErrUnbound)
	}
	if err := CheckArity(h.decl, args); err != nil {
		return nil, err
	}
	res, err := h.call(args...)
	if err != nil {
		return nil, err
	}
	if err := CheckResults(h.decl, res); err != nil {
		return nil, err
	}
	return res, nil
}

// CallInto is Call with a caller-provided result buffer: results are
// appended to out (typically a zero-length slice over a reused or
// stack array) and the extended slice is returned. When the bound
// implementation supports the buffer-threading form (BindInto), the
// whole invocation — dispatch, method body, results — completes
// without allocating; implementations that don't are dispatched
// normally and their results appended to out afterwards. Either way
// the returned slice is out plus exactly the method's results; treat
// it like any append result — valid only until out's array is reused.
//
//paramecium:hotpath
func (h MethodHandle) CallInto(out []any, args ...any) ([]any, error) {
	if h.into == nil {
		res, err := h.Call(args...)
		if err != nil || len(out) == 0 {
			return res, err
		}
		//paralint:ignore hotpathalloc compat path for bindings without BindInto; res is already their allocation
		return append(out, res...), nil
	}
	if err := CheckArity(h.decl, args); err != nil {
		return nil, err
	}
	res, err := h.into(out, args...)
	if err != nil {
		return nil, err
	}
	if len(res) < len(out) {
		return nil, fmt.Errorf("%w: %s shrank the result buffer", ErrArity, h.decl.Name)
	}
	if err := CheckResults(h.decl, res[len(out):]); err != nil {
		return nil, err
	}
	return res, nil
}

// BytesArg decodes a byte-buffer argument or result. A buffer crosses
// a method boundary either by value, as a []byte, or by reference, as
// a *[]byte. Boxing a slice into an interface allocates a copy of its
// header; boxing a pointer does not, so a per-packet path keeps the
// header in storage it owns and passes its address. Both forms carry
// the same bytes (the cross-domain plane charges them alike), and a
// buffer passed by reference is the callee's only for the call. A nil
// *[]byte decodes as a nil buffer.
func BytesArg(v any) ([]byte, bool) {
	switch b := v.(type) {
	case []byte:
		return b, true
	case *[]byte:
		if b == nil {
			return nil, true
		}
		return *b, true
	}
	return nil, false
}
