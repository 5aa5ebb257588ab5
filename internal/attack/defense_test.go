package attack

import (
	"reflect"
	"testing"

	"timecache/internal/cache"
	"timecache/internal/defense"
	"timecache/internal/machine"
)

// TestAttackDefenseConfigEquivalence: every attack entry point, given a
// registry Defense kind, reproduces the result of the same entry point given
// the structural Mode of the same name exactly — the matrix job's attack
// cells and the public per-Mode attacks measure the same channels.
func TestAttackDefenseConfigEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	want, err := RunRSA(machine.Config{Mode: cache.SecTimeCache}, 48, 99)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunRSA(machine.Config{Defense: defense.TimeCache}, 48, 99)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("flush+reload: registry spelling diverged:\n got %+v\nwant %+v", got, want)
	}

	ffWant, err := RunFlushFlush(machine.Config{Mode: cache.SecOff}, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	ffGot, err := RunFlushFlush(machine.Config{Defense: defense.None}, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ffWant, ffGot) {
		t.Errorf("flush+flush: registry spelling diverged:\n got %+v\nwant %+v", ffGot, ffWant)
	}

	smtWant, err := RunSMT(machine.Config{Mode: cache.SecTimeCache}, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	smtGot, err := RunSMT(machine.Config{Defense: defense.TimeCache}, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(smtWant, smtGot) {
		t.Errorf("smt: registry spelling diverged:\n got %+v\nwant %+v", smtGot, smtWant)
	}
}

// TestLLCOccupancyChannel pins the cache-occupancy channel's shape: it needs
// no shared memory, so it leaks through the insecure baseline and straight
// through TimeCache (whose s-bits only hide line *reuse*), while way
// partitioning — which caps the attacker's observable occupancy — kills it.
func TestLLCOccupancyChannel(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	base, err := RunLLCOccupancy(machine.Config{}, 12, 9)
	if err != nil {
		t.Fatal(err)
	}
	if base.Accuracy < 0.9 {
		t.Errorf("baseline occupancy accuracy = %.3f, want >= 0.9", base.Accuracy)
	}
	tc, err := RunLLCOccupancy(machine.Config{Defense: defense.TimeCache}, 12, 9)
	if err != nil {
		t.Fatal(err)
	}
	if tc.Accuracy < 0.9 {
		t.Errorf("timecache occupancy accuracy = %.3f, want >= 0.9 (occupancy is outside the s-bit threat model)", tc.Accuracy)
	}
	part, err := RunLLCOccupancy(machine.Config{Defense: defense.DAWGLite}, 12, 9)
	if err != nil {
		t.Fatal(err)
	}
	if part.Accuracy > 0.6 {
		t.Errorf("partitioned occupancy accuracy = %.3f, want chance level <= 0.6", part.Accuracy)
	}
}
