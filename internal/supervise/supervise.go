// Package supervise provides the panic-isolation primitives of the
// supervised flow runner: a typed PanicError that carries the panicking
// goroutine's stack across goroutine boundaries, and helpers to capture
// panics at supervision points (sweep levels, flow stages) so that one
// crashing work unit degrades into an error instead of killing the
// process.
package supervise

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"
)

// PanicError is a recovered panic promoted to an error. Stack is the
// stack of the goroutine that panicked, captured at the recovery point —
// which, for worker-pool panics, is the worker goroutine itself, not the
// supervisor that ultimately reports the error.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v", e.Value)
}

// onPanic holds the process-wide panic observer (func(*PanicError)).
var onPanic atomic.Value

// SetOnPanic registers fn to be called once per freshly captured panic
// — at the recovery point, before the error propagates — so a daemon
// can dump its flight recorder the instant something blows up. A
// *PanicError passing through AsPanicError again (supervisor re-wrap)
// does not re-fire. fn runs on the panicking goroutine and must not
// panic itself. Pass nil to unregister.
func SetOnPanic(fn func(*PanicError)) {
	if fn == nil {
		onPanic.Store((func(*PanicError))(nil))
		return
	}
	onPanic.Store(fn)
}

// AsPanicError converts a recovered value (the result of recover()) into
// a *PanicError. A value that already is a *PanicError passes through
// unchanged, preserving the original goroutine's stack; anything else is
// wrapped with the current stack (and reported to the SetOnPanic
// observer, if one is registered).
func AsPanicError(r any) *PanicError {
	if pe, ok := r.(*PanicError); ok {
		return pe
	}
	pe := &PanicError{Value: r, Stack: debug.Stack()}
	if fn, ok := onPanic.Load().(func(*PanicError)); ok && fn != nil {
		fn(pe)
	}
	return pe
}

// Recovered is a deferred-position helper: call as
//
//	defer func() {
//		if pe := supervise.Recovered(recover()); pe != nil {
//			err = pe
//		}
//	}()
//
// It returns nil when there was no panic.
func Recovered(r any) *PanicError {
	if r == nil {
		return nil
	}
	return AsPanicError(r)
}
