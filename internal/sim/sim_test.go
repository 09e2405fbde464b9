package sim

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestClockZeroValue(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock Now() = %v, want 0", c.Now())
	}
}

func TestClockAdvance(t *testing.T) {
	var c Clock
	c.Advance(5 * time.Second)
	if c.Now() != 5*time.Second {
		t.Fatalf("Now() = %v, want 5s", c.Now())
	}
	c.Advance(5 * time.Second) // advancing to the same time is allowed
	if c.Now() != 5*time.Second {
		t.Fatalf("Now() = %v, want 5s", c.Now())
	}
}

func TestClockBackwardsPanics(t *testing.T) {
	var c Clock
	c.Advance(time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on backwards advance")
		}
	}()
	c.Advance(500 * time.Millisecond)
}

func TestSecondsRoundTrip(t *testing.T) {
	for _, s := range []float64{0, 0.001, 1, 3600, 1e-9} {
		got := Seconds(FromSeconds(s))
		if diff := got - s; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("round trip %v -> %v", s, got)
		}
	}
}

func TestFromSecondsClampsNegative(t *testing.T) {
	if got := FromSeconds(-1); got != 0 {
		t.Fatalf("FromSeconds(-1) = %v, want 0", got)
	}
}

func TestLoopFiresInTimeOrder(t *testing.T) {
	var l Loop
	var got []int
	l.After(3*time.Second, func(Time) { got = append(got, 3) })
	l.After(1*time.Second, func(Time) { got = append(got, 1) })
	l.After(2*time.Second, func(Time) { got = append(got, 2) })
	l.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
	if l.Now() != 3*time.Second {
		t.Fatalf("final time %v, want 3s", l.Now())
	}
}

func TestLoopFIFOAtEqualTimes(t *testing.T) {
	var l Loop
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		l.After(time.Second, func(Time) { got = append(got, i) })
	}
	l.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("equal-time events fired out of order: %v", got)
		}
	}
}

func TestLoopSchedulePastRejected(t *testing.T) {
	var l Loop
	l.After(time.Second, func(Time) {})
	l.Run()
	if err := l.Schedule(500*time.Millisecond, func(Time) {}); !errors.Is(err, ErrPast) {
		t.Fatalf("Schedule in the past: err = %v, want ErrPast", err)
	}
}

func TestLoopNegativeAfterClamped(t *testing.T) {
	var l Loop
	fired := false
	l.After(-time.Second, func(now Time) {
		fired = true
		if now != 0 {
			t.Errorf("negative After fired at %v, want 0", now)
		}
	})
	l.Run()
	if !fired {
		t.Fatal("negative After never fired")
	}
}

func TestLoopEventsCanScheduleEvents(t *testing.T) {
	var l Loop
	depth := 0
	var recurse func(now Time)
	recurse = func(now Time) {
		depth++
		if depth < 5 {
			l.After(time.Second, recurse)
		}
	}
	l.After(time.Second, recurse)
	l.Run()
	if depth != 5 {
		t.Fatalf("depth = %d, want 5", depth)
	}
	if l.Now() != 5*time.Second {
		t.Fatalf("Now() = %v, want 5s", l.Now())
	}
}

// Property: for any set of event offsets, events fire in nondecreasing time
// order and the loop ends at the max offset.
func TestLoopOrderingProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		var l Loop
		var fireTimes []Time
		var max Time
		for _, o := range offsets {
			d := Time(o) * time.Millisecond
			if d > max {
				max = d
			}
			l.After(d, func(now Time) { fireTimes = append(fireTimes, now) })
		}
		l.Run()
		if !sort.SliceIsSorted(fireTimes, func(i, j int) bool { return fireTimes[i] < fireTimes[j] }) {
			return false
		}
		return len(offsets) == 0 || l.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestServerFIFOAndFreeAt(t *testing.T) {
	var l Loop
	s := NewServer(&l)
	if s.FreeAt() != 0 {
		t.Fatalf("idle FreeAt = %v, want 0", s.FreeAt())
	}
	var done []Time
	end1 := s.Submit(2*time.Second, func(f Time) { done = append(done, f) })
	end2 := s.Submit(3*time.Second, func(f Time) { done = append(done, f) })
	if end1 != 2*time.Second || end2 != 5*time.Second {
		t.Fatalf("completion estimates %v, %v; want 2s, 5s", end1, end2)
	}
	if s.FreeAt() != 5*time.Second {
		t.Fatalf("FreeAt = %v, want 5s", s.FreeAt())
	}
	l.Run()
	if len(done) != 2 || done[0] != 2*time.Second || done[1] != 5*time.Second {
		t.Fatalf("completions %v, want [2s 5s]", done)
	}
}

func TestServerSubmitAfterGate(t *testing.T) {
	var l Loop
	s := NewServer(&l)
	// Gate at 4s with a 1s job: starts at 4s even though the server is free.
	end := s.SubmitAfter(4*time.Second, time.Second, nil)
	if end != 5*time.Second {
		t.Fatalf("gated completion %v, want 5s", end)
	}
	// A second gated job whose gate is earlier than the queue drain starts
	// at the drain time instead.
	end = s.SubmitAfter(1*time.Second, time.Second, nil)
	if end != 6*time.Second {
		t.Fatalf("queued gated completion %v, want 6s", end)
	}
	l.Run()
}

func TestServerNegativeServiceClamped(t *testing.T) {
	var l Loop
	s := NewServer(&l)
	end := s.Submit(-time.Second, nil)
	if end != 0 {
		t.Fatalf("negative service completion %v, want 0", end)
	}
	l.Run()
}

func TestServerUtilisation(t *testing.T) {
	var l Loop
	s := NewServer(&l)
	s.Submit(2*time.Second, nil)
	l.After(4*time.Second, func(Time) {})
	l.Run()
	u := s.Utilisation()
	if u < 0.49 || u > 0.51 {
		t.Fatalf("utilisation = %v, want ~0.5", u)
	}
}

// Property: with random service times, server completions are FIFO and the
// final FreeAt equals the sum of services.
func TestServerProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		var l Loop
		s := NewServer(&l)
		n := rng.Intn(20) + 1
		var sum Time
		var completions []Time
		for i := 0; i < n; i++ {
			svc := Time(rng.Intn(1000)) * time.Millisecond
			sum += svc
			s.Submit(svc, func(f Time) { completions = append(completions, f) })
		}
		if s.FreeAt() != sum {
			t.Fatalf("trial %d: FreeAt=%v want %v", trial, s.FreeAt(), sum)
		}
		l.Run()
		if len(completions) != n {
			t.Fatalf("trial %d: %d completions, want %d", trial, len(completions), n)
		}
		for i := 1; i < len(completions); i++ {
			if completions[i] < completions[i-1] {
				t.Fatalf("trial %d: completions not FIFO: %v", trial, completions)
			}
		}
		if completions[n-1] != sum {
			t.Fatalf("trial %d: last completion %v, want %v", trial, completions[n-1], sum)
		}
	}
}

func BenchmarkLoopScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var l Loop
		for j := 0; j < 1000; j++ {
			l.After(Time(j%17)*time.Millisecond, func(Time) {})
		}
		l.Run()
	}
}
