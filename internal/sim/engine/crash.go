package engine

// Crash-point injection: a crash kills the whole simulated machine at a
// precise point — a cycle, a device-op index (armed on the device store,
// which calls CrashNow), or entry to a named span occurrence. Simulated
// threads unwind via a private panic sentinel without running any user-space
// cleanup: no deferred msync, no flush, no lock release. The engine then
// drains every live process goroutine (each re-panics at its next resume
// point) so no goroutine outlives the run, and Run returns with Crashed()
// non-nil. Process clocks are clamped to the crash cycle so Now() reports
// the instant the machine died.

// CrashConfig arms the engine-side crash triggers. Zero values disarm.
type CrashConfig struct {
	// AtCycle kills the run when any process clock reaches this cycle.
	AtCycle uint64
	// AtSpan kills the run on entry to the SpanHit'th occurrence of this
	// named span (BeginSpan), counted machine-wide across all processes.
	AtSpan string
	// SpanHit is the 1-based occurrence of AtSpan that fires (0 = first).
	SpanHit uint64
}

// CrashInfo describes a crash that has happened.
type CrashInfo struct {
	// Cycle is the simulated cycle the machine died.
	Cycle uint64
	// Reason names the trigger: "cycle", "device-op", or "span:<name>".
	Reason string
}

// crashPanic is the unwind sentinel. Only the engine creates and recovers
// it; any other panic value propagates unchanged.
type crashPanic struct{ reason string }

type crashState struct {
	atCycle  uint64
	atSpan   string
	spanHit  uint64
	spanSeen uint64
	info     *CrashInfo
	// closed is set by Close: every process still alive unwinds at its next
	// resume point, like after a crash, but no crash is recorded.
	closed bool
}

// ArmCrash installs engine-side crash triggers. Call before Run.
func (e *Engine) ArmCrash(c CrashConfig) {
	e.crash.atCycle = c.AtCycle
	e.crash.atSpan = c.AtSpan
	e.crash.spanHit = c.SpanHit
	if e.crash.spanHit == 0 {
		e.crash.spanHit = 1
	}
	if e.crash.atSpan == "" {
		e.crash.spanHit = 0
	}
}

// Crashed returns the crash that ended the run, or nil.
func (e *Engine) Crashed() *CrashInfo { return e.crash.info }

// CrashNow kills the machine from inside simulated code at the calling
// process's current cycle — the hook external triggers (the device store's
// ArmCrashAtOp) fire. It panics with the crash sentinel and never returns.
func (e *Engine) CrashNow(reason string) {
	panic(&crashPanic{reason: reason})
}

// noteCrash records the first crash sentinel that unwinds a process body.
// An unwind driven by Close is not a crash and records nothing.
func (e *Engine) noteCrash(p *Proc, cp *crashPanic) {
	if e.crash.info == nil && !e.crash.closed {
		cycle := p.now
		if c := e.crash.atCycle; c != 0 && cycle > c {
			cycle = c
		}
		e.crash.info = &CrashInfo{Cycle: cycle, Reason: cp.reason}
	}
}

// checkCrash panics with the crash sentinel when a trigger has fired. Called
// at every scheduling point (resume from Yield/block, end of advance), so a
// process can execute at most one compute segment past the crash instant —
// and its clock is clamped back to the crash cycle before unwinding, keeping
// Engine.Now() == the crash cycle.
func (p *Proc) checkCrash() {
	cs := &p.e.crash
	if cs.info == nil && cs.atCycle == 0 && !cs.closed {
		return
	}
	if cs.closed {
		panic(&crashPanic{reason: "close"})
	}
	if cs.info != nil {
		if p.now > cs.info.Cycle {
			p.now = cs.info.Cycle
		}
		panic(&crashPanic{reason: cs.info.Reason})
	}
	if p.now >= cs.atCycle {
		if p.now > cs.atCycle {
			p.now = cs.atCycle
		}
		panic(&crashPanic{reason: "cycle"})
	}
}

// checkSpanCrash implements the AtSpan trigger; called from BeginSpan before
// its tracer early-return so the trigger works without instrumentation.
func (p *Proc) checkSpanCrash(name string) {
	cs := &p.e.crash
	if cs.spanHit == 0 || name != cs.atSpan {
		return
	}
	cs.spanSeen++
	if cs.spanSeen == cs.spanHit {
		panic(&crashPanic{reason: "span:" + name})
	}
}

// drainCrash unwinds every live process after the first crash baton: each
// started, unfinished process is resumed and re-panics at its next resume
// point (checkCrash sees crash.info). Processes that never started have no
// goroutine and need nothing. Afterwards the run queue and block accounting
// are cleared; Run returns immediately on a crashed engine.
func (e *Engine) drainCrash() {
	for _, p := range e.procs {
		for p.started && !p.done {
			e.current = p
			p.resume <- struct{}{}
			<-e.baton
			e.current = nil
		}
	}
	e.runq = procHeap{}
	e.blocked, e.blockedDaemons = 0, 0
}

// Close ends the engine's life. Run returns with daemon processes (SpawnDaemon)
// still parked on their wakeup primitive, each holding a goroutine and, through
// its closure, everything it serves. Close unwinds them through the crash
// sentinel, exactly as drainCrash unwinds a crashed machine (no user-space
// cleanup runs), but records no crash: Crashed() is unchanged and clocks keep
// their values. Call it from outside Run once the engine is no longer needed;
// Run on a closed engine panics. Close is idempotent.
func (e *Engine) Close() {
	if e.current != nil {
		panic("engine: Close called from inside a running process")
	}
	e.crash.closed = true
	e.drainCrash()
}
