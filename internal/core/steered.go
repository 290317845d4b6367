package core

import "time"

// Steered is the application-side instrumentation handle, the analogue of
// the RealityGrid steering API / VISIT simulation bindings: "the RealityGrid
// project has defined APIs for the steering calls which can be used to link
// from the application to the services" (section 2.3).
//
// Parameters are typed — float, int, bool, string, choice — mirroring the
// VISIT data model (tagged integers, floats, strings; section 3.2). The
// session performs all validation and conversion on the receiving side, so
// the apply callbacks always see a value of the registered type.
//
// All methods are simulation-initiated and non-blocking (except
// PollBlocking, which the application opts into while paused), so steering
// can never stall the computation.
type Steered struct {
	s *Session
}

// RegisterFloat declares a steerable float parameter bounded to [min, max].
// apply is invoked from the simulation's Poll path when a validated steering
// request arrives, so applications need no locking of their own if they poll
// at loop boundaries.
func (st *Steered) RegisterFloat(name string, initial, min, max float64, help string, apply func(float64)) error {
	if apply == nil {
		return st.s.params.register(&paramDef{Param: Param{Name: name, Type: FloatParam}})
	}
	return st.s.params.register(&paramDef{
		Param: Param{Name: name, Type: FloatParam, Value: FloatValue(initial), Min: min, Max: max, Help: help},
		apply: func(v Value) { apply(v.Float()) },
	})
}

// RegisterInt declares a steerable integer parameter bounded to [min, max].
func (st *Steered) RegisterInt(name string, initial, min, max int64, help string, apply func(int64)) error {
	if apply == nil {
		return st.s.params.register(&paramDef{Param: Param{Name: name, Type: IntParam}})
	}
	return st.s.params.register(&paramDef{
		Param: Param{Name: name, Type: IntParam, Value: IntValue(initial), Min: float64(min), Max: float64(max), Help: help},
		apply: func(v Value) { apply(v.I) },
	})
}

// RegisterBool declares a steerable on/off toggle.
func (st *Steered) RegisterBool(name string, initial bool, help string, apply func(bool)) error {
	if apply == nil {
		return st.s.params.register(&paramDef{Param: Param{Name: name, Type: BoolParam}})
	}
	return st.s.params.register(&paramDef{
		Param: Param{Name: name, Type: BoolParam, Value: BoolValue(initial), Help: help},
		apply: func(v Value) { apply(v.I != 0) },
	})
}

// RegisterString declares a steerable free-form string parameter.
func (st *Steered) RegisterString(name, initial, help string, apply func(string)) error {
	if apply == nil {
		return st.s.params.register(&paramDef{Param: Param{Name: name, Type: StringParam}})
	}
	return st.s.params.register(&paramDef{
		Param: Param{Name: name, Type: StringParam, Value: StringValue(initial), Help: help},
		apply: func(v Value) { apply(v.S) },
	})
}

// RegisterChoice declares a parameter selecting one of a fixed list of
// strings. Steering clients may send either the choice string or its index;
// apply always receives the choice string.
func (st *Steered) RegisterChoice(name string, choices []string, initial, help string, apply func(string)) error {
	if apply == nil {
		return st.s.params.register(&paramDef{Param: Param{Name: name, Type: ChoiceParam, Choices: choices}})
	}
	return st.s.params.register(&paramDef{
		Param: Param{Name: name, Type: ChoiceParam, Value: StringValue(initial), Choices: choices, Help: help},
		apply: func(v Value) { apply(v.S) },
	})
}

// Emit publishes a sample to all attached clients. It never blocks: slow
// clients lose frames instead.
func (st *Steered) Emit(sample *Sample) {
	st.s.broadcastSample(sample)
}

// Event publishes a progress/status string (section 4.4's activity
// indicator for long-running steering actions).
func (st *Steered) Event(ev string) {
	st.s.broadcastEvent(ev)
}

// EmitBlob publishes one bulk binary frame — pixel tiles, a rendered
// frame, geometry — to the clients subscribed to its stream. Like
// Emit it never blocks: a slow client's ring overwrites its oldest blob,
// so viewers see the freshest frame rather than a growing backlog. Blobs
// are never journaled; publishers are responsible for re-keying late
// joiners (emit a keyframe when ClientCount grows or on a periodic
// keyframe cadence).
//
// This is the pixel-frame publish entry point: per-frame work below it is
// one pooled-buffer encode plus refcounted ring pushes, and steervet's
// hotpathalloc pass holds the whole descent to that budget.
//
//steer:hotpath
func (st *Steered) EmitBlob(b *Blob) {
	st.s.broadcastBlob(b)
}

// Poll applies every queued steering operation and returns the control
// verdict. Call it once per simulation loop iteration; it never blocks.
// A closed session reads as stopped: when the hosting daemon tears the
// session down, the application loop winds down with it.
func (st *Steered) Poll() Control {
	s := st.s
	for {
		select {
		case op := <-s.pending:
			st.applyOp(op)
		default:
			s.mu.Lock()
			defer s.mu.Unlock()
			switch {
			case s.stopped, s.closed:
				return ControlStop
			case s.paused:
				return ControlPaused
			default:
				return ControlContinue
			}
		}
	}
}

// PollBlocking behaves like Poll but, when the session is paused, blocks
// until resumed or stopped (with a safety timeout so a lost client cannot
// hold the application forever; 0 means wait indefinitely).
func (st *Steered) PollBlocking(pauseTimeout time.Duration) Control {
	for {
		c := st.Poll()
		if c != ControlPaused {
			return c
		}
		s := st.s
		s.mu.Lock()
		ch := s.resumeCh
		s.mu.Unlock()

		if pauseTimeout <= 0 {
			select {
			case <-ch:
			case <-s.closeCh:
				return ControlStop
			}
			continue
		}
		select {
		case <-ch:
		case <-s.closeCh:
			return ControlStop
		case <-time.After(pauseTimeout):
			return ControlPaused
		}
	}
}

// applyOp performs one queued steering operation on the simulation
// goroutine.
func (st *Steered) applyOp(op pendingOp) {
	s := st.s
	if len(op.sets) > 0 {
		updated := make([]Param, 0, len(op.sets))
		for _, set := range op.sets {
			p, err := s.params.applyAndGet(set.Name, set.Value)
			if err != nil {
				continue
			}
			updated = append(updated, p)
		}
		if len(updated) == 0 {
			return
		}
		s.statSteersApplied.Add(uint64(len(updated)))
		// The next sample and the next blob carry this steer's effect:
		// stampPush marks them so observers are not made to wait for it.
		s.steerEpoch.Add(1)
		s.broadcastControl(&envelope{Type: msgParamUpdate, Params: updated})
		return
	}
	switch op.cmd {
	case cmdPause:
		s.mu.Lock()
		s.paused = true
		s.mu.Unlock()
		s.broadcastEvent("paused")
	case cmdResume:
		s.signalResume()
		s.broadcastEvent("resumed")
	case cmdStop:
		s.mu.Lock()
		s.stopped = true
		s.mu.Unlock()
		s.signalResume()
		s.broadcastEvent("stopping")
	case cmdCheckpoint:
		// Delivered to the application via the control verdict exactly once.
		s.broadcastEvent("checkpoint requested")
		s.mu.Lock()
		s.checkpointPending = true
		s.mu.Unlock()
	}
}

// CheckpointRequested reports and clears a pending checkpoint request; the
// application should write its checkpoint when true.
func (st *Steered) CheckpointRequested() bool {
	s := st.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.checkpointPending {
		s.checkpointPending = false
		return true
	}
	return false
}
