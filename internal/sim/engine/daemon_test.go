package engine

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

func TestDaemonDoesNotHoldRunOpen(t *testing.T) {
	e := New(Config{NumCPUs: 2})
	sig := NewSignal(e, "work")
	var served int
	d := e.SpawnDaemon(1, "daemon", func(p *Proc) {
		for {
			sig.Wait(p)
			p.AdvanceSystem(100)
			served++
		}
	})
	if !d.Daemon() {
		t.Fatal("SpawnDaemon did not mark the proc")
	}
	e.Spawn(0, "w", func(p *Proc) { p.AdvanceUser(50) })
	// Run must return with the daemon still parked, not panic on deadlock.
	e.Run()
	if served != 0 {
		t.Fatalf("daemon served %d before any signal", served)
	}
	// The daemon persists across Run calls: wake it, run again.
	e.Spawn(0, "w2", func(p *Proc) {
		p.AdvanceUser(10)
		sig.Set(p.Now())
	})
	e.Run()
	if served != 1 {
		t.Fatalf("served = %d after signal, want 1", served)
	}
	// And again: the signal re-arms.
	e.Spawn(0, "w3", func(p *Proc) { sig.Set(p.Now()) })
	e.Run()
	if served != 2 {
		t.Fatalf("served = %d after second signal, want 2", served)
	}
}

func TestRunStillPanicsOnRealDeadlock(t *testing.T) {
	e := New(Config{NumCPUs: 2})
	sig := NewSignal(e, "never")
	e.Spawn(0, "stuck", func(p *Proc) { sig.Wait(p) }) // not a daemon
	defer func() {
		if recover() == nil {
			t.Fatal("Run returned with a non-daemon proc blocked forever")
		}
	}()
	e.Run()
}

func TestSignalLatchesAndCoalesces(t *testing.T) {
	e := New(Config{NumCPUs: 1})
	sig := NewSignal(e, "s")
	e.Spawn(0, "p", func(p *Proc) {
		// Set before Wait: latched, not lost.
		sig.Set(500)
		if !sig.Pending() {
			t.Error("set not latched")
		}
		// Coalesce keeps the earliest time.
		sig.Set(900)
		sig.Set(300)
		sig.Wait(p)
		if p.Now() != 300 {
			t.Errorf("woke at %d, want earliest coalesced set 300", p.Now())
		}
		if sig.Pending() {
			t.Error("wait did not consume the latch")
		}
		// A stale (past) set does not move the clock backward.
		p.AdvanceUser(1000)
		sig.Set(100)
		sig.Wait(p)
		if p.Now() != 1300 {
			t.Errorf("now = %d after past-time set, want 1300", p.Now())
		}
	})
	e.Run()
}

func TestSignalWakesParkedWaiter(t *testing.T) {
	e := New(Config{NumCPUs: 2})
	sig := NewSignal(e, "s")
	var wokeAt uint64
	e.SpawnDaemon(1, "sleeper", func(p *Proc) {
		for {
			sig.Wait(p)
			wokeAt = p.Now()
		}
	})
	e.Spawn(0, "waker", func(p *Proc) {
		p.AdvanceUser(4321)
		sig.Set(p.Now())
	})
	e.Run()
	if wokeAt != 4321 {
		t.Fatalf("sleeper woke at %d, want 4321", wokeAt)
	}
}

// settledGoroutines polls runtime.NumGoroutine until it drops to at most
// want: a goroutine that has handed the baton back still needs a moment to
// return from its body.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 1000 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func TestCloseReapsParkedDaemons(t *testing.T) {
	base := settledGoroutines(0)
	e := New(Config{NumCPUs: 4})
	for i := 0; i < 3; i++ {
		sig := NewSignal(e, fmt.Sprintf("work-%d", i))
		e.SpawnDaemon(1+i, "daemon", func(p *Proc) {
			for {
				sig.Wait(p)
				p.AdvanceSystem(100)
			}
		})
	}
	e.Spawn(0, "w", func(p *Proc) { p.AdvanceUser(50) })
	e.Run()
	if n := runtime.NumGoroutine(); n < base+3 {
		t.Fatalf("goroutines after Run = %d, want the 3 parked daemons above baseline %d", n, base)
	}
	now := e.Now()
	e.Close()
	if n := settledGoroutines(base); n > base {
		t.Fatalf("goroutines after Close = %d, want baseline %d", n, base)
	}
	if e.Crashed() != nil {
		t.Errorf("Close recorded a crash: %+v", e.Crashed())
	}
	if e.Now() != now {
		t.Errorf("Close moved the clock from %d to %d", now, e.Now())
	}
	e.Close() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("Run on a closed engine did not panic")
		}
	}()
	e.Run()
}
