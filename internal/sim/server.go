package sim

// Server models a single-worker FIFO partition queue on the virtual
// timeline: jobs are served one at a time, in submission order. It mirrors
// the paper's per-partition queues (Q_CPU, Q_TRANS, Q_G1..Q_G6), each of
// which "is aware of how many jobs are outstanding and when all its jobs
// will be finished" (the T_Q parameter in Fig. 10).
type Server struct {
	loop *Loop

	// free is the virtual time at which the server drains: max(now, end of
	// last queued job). This is exactly T_Q in the paper.
	free Time

	busy Time // cumulative busy time, for utilisation reporting
}

// NewServer creates a server bound to a loop.
func NewServer(loop *Loop) *Server {
	return &Server{loop: loop}
}

// FreeAt returns the virtual time when all currently queued jobs finish
// (T_Q in the paper). If the server is idle it returns the current time.
func (s *Server) FreeAt() Time {
	if now := s.loop.Now(); s.free < now {
		return now
	}
	return s.free
}

// Submit enqueues a job with the given service time. done (may be nil) fires
// at completion with the completion time. Submit returns the completion
// time, i.e. the new T_Q.
func (s *Server) Submit(service Time, done func(finished Time)) Time {
	return s.SubmitAfter(0, service, done)
}

// SubmitAfter enqueues a job that additionally cannot start before
// notBefore (used for GPU jobs gated on translation completion: the
// paper's max(T_Q|Gi, T_Q|TRANS + T_TRANS) term). It returns the completion
// time.
func (s *Server) SubmitAfter(notBefore Time, service Time, done func(finished Time)) Time {
	if service < 0 {
		service = 0
	}
	start := s.FreeAt()
	if notBefore > start {
		start = notBefore
	}
	end := start + service
	s.free = end
	s.busy += service
	s.loop.After(end-s.loop.Now(), func(now Time) {
		if done != nil {
			done(now)
		}
	})
	return end
}

// Utilisation returns busy time divided by elapsed time since the epoch,
// in [0, 1] (0 when no time has elapsed).
func (s *Server) Utilisation() float64 {
	elapsed := s.loop.Now()
	if elapsed <= 0 {
		return 0
	}
	u := float64(s.busy) / float64(elapsed)
	if u > 1 {
		u = 1
	}
	return u
}
