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

// AsPanicError converts a recovered value (the result of recover()) into
// a *PanicError. A value that already is a *PanicError passes through
// unchanged, preserving the original goroutine's stack; anything else is
// wrapped with the current stack.
func AsPanicError(r any) *PanicError {
	if pe, ok := r.(*PanicError); ok {
		return pe
	}
	return &PanicError{Value: r, Stack: debug.Stack()}
}
