package guard

import (
	"strings"
	"testing"
)

func TestInjectDisarmedIsFree(t *testing.T) {
	Reset()
	// With nothing planted, Inject must be a no-op for any stage/group.
	Inject("match", 0)
	Inject("verify", AnyGroup)
	if n := Planted(); n != 0 {
		t.Fatalf("Planted() = %d after no-op Injects, want 0", n)
	}
}

func TestInjectFiresOnceForExactKey(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	Plant("trial", 3)
	// Wrong stage and wrong group must not trip the plant.
	Inject("match", 3)
	Inject("trial", 2)
	if Planted() != 1 {
		t.Fatal("plant consumed by a non-matching Inject")
	}
	func() {
		defer func() {
			v := recover()
			ip, ok := v.(InjectedPanic)
			if !ok {
				t.Fatalf("recovered %T (%v), want InjectedPanic", v, v)
			}
			if ip.Stage != "trial" || ip.Group != 3 {
				t.Fatalf("InjectedPanic = %+v, want stage trial group 3", ip)
			}
			if !strings.Contains(ip.String(), `"trial"`) || !strings.Contains(ip.String(), "group 3") {
				t.Fatalf("InjectedPanic.String() = %q", ip.String())
			}
		}()
		Inject("trial", 3)
		t.Fatal("Inject with a matching plant did not panic")
	}()
	// One-shot: the plant is consumed.
	if Planted() != 0 {
		t.Fatalf("Planted() = %d after firing, want 0", Planted())
	}
	Inject("trial", 3)
}

func TestInjectAnyGroupWildcard(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	Plant("ctrlsig", AnyGroup)
	defer func() {
		if v := recover(); v == nil {
			t.Fatal("AnyGroup plant did not fire for a concrete group")
		}
	}()
	Inject("ctrlsig", 7)
}

func TestResetClearsPlants(t *testing.T) {
	Reset()
	Plant("match", 0)
	Plant("verify", AnyGroup)
	if Planted() != 2 {
		t.Fatalf("Planted() = %d, want 2", Planted())
	}
	Reset()
	if Planted() != 0 {
		t.Fatalf("Planted() = %d after Reset, want 0", Planted())
	}
	Inject("match", 0) // must not panic
}

func TestNewGroupFailureCapturesPanicValue(t *testing.T) {
	f := func() (gf *GroupFailure) {
		defer func() {
			gf = NewGroupFailure(5, "match", recover())
		}()
		panic("index out of range")
	}()
	if f.Group != 5 || f.Stage != "match" {
		t.Fatalf("GroupFailure = %+v", f)
	}
	if f.Message != "index out of range" {
		t.Fatalf("Message = %q", f.Message)
	}
	if !strings.Contains(f.Stack, "guard_test.go") {
		t.Errorf("stack does not reference the panicking frame:\n%s", f.Stack)
	}
	want := `group 5 failed at stage "match": index out of range`
	if f.String() != want {
		t.Errorf("String() = %q, want %q", f.String(), want)
	}
}

func TestDegradationString(t *testing.T) {
	d := Degradation{Group: 2, Subgroup: "acc0", Reason: ReasonConeGates, Detail: "cone scope 900 nets > budget 100"}
	s := d.String()
	for _, frag := range []string{"group 2", "acc0", ReasonConeGates, "900"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Degradation.String() = %q missing %q", s, frag)
		}
	}
}

func TestRescueConvertsPanicToGroupFailure(t *testing.T) {
	var got *GroupFailure
	func() {
		defer Rescue("pool", func(f *GroupFailure) { got = f })
		panic("worker exploded")
	}()
	if got == nil {
		t.Fatal("Rescue did not invoke the handler")
	}
	if got.Group != AnyGroup {
		t.Errorf("Group = %d, want AnyGroup", got.Group)
	}
	if got.Stage != "pool" {
		t.Errorf("Stage = %q, want pool", got.Stage)
	}
	if got.Message != "worker exploded" {
		t.Errorf("Message = %q", got.Message)
	}
	if !strings.Contains(got.Stack, "guard_test") {
		t.Errorf("stack does not show the panic site:\n%s", got.Stack)
	}
}

func TestRescueNoPanicIsNoop(t *testing.T) {
	called := false
	func() {
		defer Rescue("pool", func(*GroupFailure) { called = true })
	}()
	if called {
		t.Error("handler invoked without a panic")
	}
}

func TestRescueNilHandlerContains(t *testing.T) {
	// Must not re-panic or crash: the nil handler merely contains.
	func() {
		defer Rescue("pool", nil)
		panic("contained")
	}()
}

// mustPanic asserts fn panics with an InjectedPanic.
func mustPanic(t *testing.T, stage string, group int) {
	t.Helper()
	defer func() {
		if v := recover(); v == nil {
			t.Fatalf("Inject(%q, %d) did not fire", stage, group)
		}
	}()
	Inject(stage, group)
}

func TestPlantNFiresExactly(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	PlantN("job:b06a", AnyGroup, 3)
	if Planted() != 3 {
		t.Fatalf("Planted() = %d, want 3 shots", Planted())
	}
	for i := 0; i < 3; i++ {
		mustPanic(t, "job:b06a", AnyGroup)
	}
	// The fourth call passes: the fault budget is spent.
	Inject("job:b06a", AnyGroup)
	if Planted() != 0 {
		t.Fatalf("Planted() = %d after firing all shots, want 0", Planted())
	}
}

func TestPlantNReplacesAndDisarms(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	PlantN("trial", 1, 5)
	PlantN("trial", 1, 2) // replace, not accumulate
	if Planted() != 2 {
		t.Fatalf("Planted() = %d after re-plant, want 2", Planted())
	}
	PlantN("trial", 1, 0) // disarm
	if Planted() != 0 {
		t.Fatalf("Planted() = %d after disarm, want 0", Planted())
	}
	Inject("trial", 1)
}

func TestPlantSpec(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	if err := PlantSpec("job:b06a*3, trial@2, match@*"); err != nil {
		t.Fatal(err)
	}
	if Planted() != 5 {
		t.Fatalf("Planted() = %d, want 5 shots", Planted())
	}
	mustPanic(t, "job:b06a", AnyGroup)
	mustPanic(t, "trial", 2)
	mustPanic(t, "match", 7) // AnyGroup wildcard
	Inject("trial", 3)       // group 3 not armed
	if Planted() != 2 {
		t.Fatalf("Planted() = %d, want 2 remaining b06a shots", Planted())
	}
}

func TestPlantSpecErrors(t *testing.T) {
	Reset()
	t.Cleanup(Reset)
	for _, spec := range []string{"trial*x", "trial*0", "trial@x", "@3", "*2"} {
		if err := PlantSpec(spec); err == nil {
			t.Errorf("PlantSpec(%q) accepted", spec)
		}
	}
	if err := PlantSpec(""); err != nil { // empty spec is a no-op
		t.Errorf("empty spec rejected: %v", err)
	}
	Reset()
	if Planted() != 0 {
		t.Fatalf("Planted() = %d after Reset", Planted())
	}
}
