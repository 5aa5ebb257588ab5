package runner

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapOrdering checks results land in index order regardless of the
// completion order the scheduler produces.
func TestMapOrdering(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		n := 64
		got, err := Map(n, Options{Workers: workers}, func(i int) (int, error) {
			// Earlier jobs sleep longer so completion order inverts.
			time.Sleep(time.Duration(n-i) * 10 * time.Microsecond)
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(got), n)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestMapError checks a failing job cancels the pool and its error (not a
// later job's) surfaces.
func TestMapError(t *testing.T) {
	boom := errors.New("boom")
	var started atomic.Int64
	_, err := Map(1000, Options{Workers: 4}, func(i int) (int, error) {
		started.Add(1)
		if i == 3 {
			return 0, fmt.Errorf("job %d: %w", i, boom)
		}
		time.Sleep(100 * time.Microsecond)
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if n := started.Load(); n == 1000 {
		t.Fatal("pool ran every job despite an early failure")
	}
}

// TestMapErrorLowestIndex checks the deterministic-error rule: when several
// jobs fail, the lowest-indexed observed failure wins.
func TestMapErrorLowestIndex(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	_, err := Map(2, Options{Workers: 2}, func(i int) (int, error) {
		if i == 0 {
			time.Sleep(time.Millisecond) // fail after job 1 has already failed
			return 0, errLow
		}
		return 0, errHigh
	})
	if !errors.Is(err, errLow) {
		t.Fatalf("err = %v, want %v", err, errLow)
	}
}

// TestMapSequentialErrorSemantics checks Workers=1 returns the first error
// without running later jobs, exactly like a plain loop.
func TestMapSequentialErrorSemantics(t *testing.T) {
	var ran []int
	_, err := Map(10, Options{Workers: 1}, func(i int) (int, error) {
		ran = append(ran, i)
		if i == 2 {
			return 0, errors.New("stop")
		}
		return i, nil
	})
	if err == nil || err.Error() != "stop" {
		t.Fatalf("err = %v, want stop", err)
	}
	if len(ran) != 3 {
		t.Fatalf("ran %v, want exactly [0 1 2]", ran)
	}
}

// TestProgress checks the callback reports monotonically increasing counts
// up to n. The slow case stalls the first callback so other workers finish
// jobs meanwhile; their counts must still arrive after it, in order.
func TestProgress(t *testing.T) {
	cases := []struct {
		workers, n int
		firstDelay time.Duration
	}{
		{1, 20, 0},
		{4, 20, 0},
		{4, 64, 5 * time.Millisecond},
	}
	for _, tc := range cases {
		var calls []int
		_, err := Map(tc.n, Options{Workers: tc.workers, Progress: func(d, total int) {
			if total != tc.n {
				t.Fatalf("total = %d, want %d", total, tc.n)
			}
			if len(calls) == 0 {
				time.Sleep(tc.firstDelay)
			}
			calls = append(calls, d)
		}}, func(i int) (int, error) { return i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(calls) != tc.n {
			t.Fatalf("workers=%d: %d progress calls, want %d", tc.workers, len(calls), tc.n)
		}
		for i := range calls {
			if calls[i] != i+1 {
				t.Fatalf("workers=%d: progress not monotonic: %v", tc.workers, calls)
			}
		}
	}
}

// TestMapEmpty checks n=0 is a no-op.
func TestMapEmpty(t *testing.T) {
	got, err := Map(0, Options{}, func(i int) (int, error) { return 0, errors.New("never") })
	if err != nil || got != nil {
		t.Fatalf("got %v, %v; want nil, nil", got, err)
	}
}

// TestDo checks the no-result wrapper propagates errors.
func TestDo(t *testing.T) {
	var sum atomic.Int64
	if err := Do(100, Options{Workers: 8}, func(i int) error {
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 4950 {
		t.Fatalf("sum = %d, want 4950", sum.Load())
	}
}
