// Wall time for the service layer.
//
// The simulator's cycle clock (Clock) is deterministic by construction; the
// job service's wall timestamps historically were not, which made every
// timeout and drain test a race against real time. WallClock is the
// injectable seam: production code uses Real, tests use a Fake whose Advance
// fires timers deterministically. Code under internal/ must not call
// time.Now or time.AfterFunc directly — the discipline the simulation side
// has always had, extended to the daemon. TestNoDirectWallClock enforces it
// for time.Now and time.Since.
package clock

import (
	"sort"
	"sync"
	"time"
)

// WallClock abstracts wall time: timestamps and one-shot timers. Implemented
// by Real (production) and *Fake (tests).
type WallClock interface {
	// Now returns the current wall time.
	Now() time.Time
	// AfterFunc runs f after d has elapsed, on its own goroutine for Real
	// and synchronously inside Advance for Fake. Stop prevents a firing
	// that has not happened yet.
	AfterFunc(d time.Duration, f func()) WallTimer
}

// WallTimer is a stoppable one-shot timer returned by AfterFunc.
type WallTimer interface {
	// Stop cancels the timer, reporting whether it prevented the firing.
	Stop() bool
}

// Real is the production WallClock backed by package time.
type Real struct{}

// Now implements WallClock.
func (Real) Now() time.Time { return time.Now() }

// AfterFunc implements WallClock.
func (Real) AfterFunc(d time.Duration, f func()) WallTimer { return time.AfterFunc(d, f) }

// Fake is a manually advanced WallClock for tests. Timers fire inside
// Advance, on the calling goroutine, in deadline order; equal deadlines fire
// in registration order. The zero value starts at the zero time; NewFake
// picks a fixed non-zero epoch so timestamps are recognizably synthetic.
type Fake struct {
	mu     sync.Mutex
	now    time.Time
	seq    int
	timers []*fakeTimer
}

type fakeTimer struct {
	f       *Fake
	at      time.Time
	seq     int
	fn      func()
	stopped bool
	fired   bool
}

// NewFake returns a Fake clock starting at start; a zero start picks
// 2000-01-01T00:00:00Z.
func NewFake(start time.Time) *Fake {
	if start.IsZero() {
		start = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	return &Fake{now: start}
}

// Now implements WallClock.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// AfterFunc implements WallClock. A non-positive d fires on the next
// Advance (of any amount), never synchronously, so callers observe the same
// "timer fires later" contract Real gives them.
func (f *Fake) AfterFunc(d time.Duration, fn func()) WallTimer {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := &fakeTimer{f: f, at: f.now.Add(d), seq: f.seq, fn: fn}
	f.seq++
	f.timers = append(f.timers, t)
	return t
}

// Stop implements WallTimer.
func (t *fakeTimer) Stop() bool {
	t.f.mu.Lock()
	defer t.f.mu.Unlock()
	if t.fired || t.stopped {
		return false
	}
	t.stopped = true
	return true
}

// Advance moves the clock forward by d and fires every timer whose deadline
// has been reached, in deadline order. Callbacks run on the caller's
// goroutine with the clock unlocked, so they may read Now or register new
// timers; timers registered during Advance fire only if their deadline is
// within the already-advanced time.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	target := f.now.Add(d)
	for {
		due := f.due(target)
		if len(due) == 0 {
			break
		}
		for _, t := range due {
			f.now = t.at
			t.fired = true
			f.mu.Unlock()
			t.fn()
			f.mu.Lock()
		}
	}
	f.now = target
	f.mu.Unlock()
}

// due collects (and marks) unfired timers with deadlines at or before
// target, sorted by (deadline, registration). Caller holds f.mu.
func (f *Fake) due(target time.Time) []*fakeTimer {
	var due []*fakeTimer
	kept := f.timers[:0]
	for _, t := range f.timers {
		switch {
		case t.stopped || t.fired:
		case !t.at.After(target):
			due = append(due, t)
		default:
			kept = append(kept, t)
		}
	}
	f.timers = kept
	sort.SliceStable(due, func(i, j int) bool {
		if !due[i].at.Equal(due[j].at) {
			return due[i].at.Before(due[j].at)
		}
		return due[i].seq < due[j].seq
	})
	return due
}
