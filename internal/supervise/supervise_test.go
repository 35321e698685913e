package supervise

import (
	"strings"
	"testing"
)

func TestAsPanicErrorCapturesStack(t *testing.T) {
	var pe *PanicError
	func() {
		defer func() { pe = AsPanicError(recover()) }()
		panic("boom")
	}()
	if pe == nil || pe.Value != "boom" {
		t.Fatalf("pe = %+v", pe)
	}
	if !strings.Contains(pe.Error(), "boom") {
		t.Errorf("Error() = %q", pe.Error())
	}
	// The stack must name this test function — the panicking goroutine.
	if !strings.Contains(string(pe.Stack), "TestAsPanicErrorCapturesStack") {
		t.Errorf("stack does not name the panicking frame:\n%s", pe.Stack)
	}
}

func TestAsPanicErrorPassthroughPreservesStack(t *testing.T) {
	orig := &PanicError{Value: "inner", Stack: []byte("shard goroutine stack")}
	got := AsPanicError(orig)
	if got != orig {
		t.Fatal("re-wrapped an existing PanicError, losing the original stack")
	}
}
