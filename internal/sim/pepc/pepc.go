package pepc

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// BeamParams are the interactively steerable beam controls of section 3.4:
// "the particle beam or laser parameters (charge/intensity, direction) can be
// altered by the user interactively while the application is running".
type BeamParams struct {
	// Charge of each injected beam particle.
	Charge float64
	// Intensity is the number of particles injected per timestep.
	Intensity int
	// Direction is the beam velocity direction (normalised internally).
	Direction Vec
	// Speed of injected particles.
	Speed float64
	// Origin is where the beam enters the domain.
	Origin Vec
	// Spread is the transverse jitter radius of injection points.
	Spread float64
}

// Params configures a simulation.
type Params struct {
	// Theta is the Barnes–Hut multipole acceptance parameter (typ. 0.3–0.7).
	Theta float64
	// Dt is the leapfrog timestep.
	Dt float64
	// Eps is the Plummer softening length.
	Eps float64
	// Workers bounds the force-phase worker pool; 0 uses GOMAXPROCS.
	Workers int
	// Seed makes scenario construction reproducible.
	Seed int64
}

// Sim is a running PEPC-style plasma simulation.
type Sim struct {
	p   Params
	rng *rand.Rand

	mu    sync.RWMutex // guards beam and damping against concurrent steering
	beam  BeamParams
	damp  float64 // velocity damping per step, for "assisting towards a cold state"
	label int32   // next particle tracking label

	pos    []Vec
	vel    []Vec
	charge []float64
	mass   []float64
	labels []int32
	proc   []int32 // worker domain that computed the particle's force last step

	tree   tree  // rebuilt in place by every tree force evaluation
	forces []Vec // Step's force buffer

	step         int
	workers      int
	interactions int64 // interaction counter for scaling experiments
}

// New creates an empty simulation.
func New(p Params) (*Sim, error) {
	if p.Theta <= 0 || p.Theta >= 1.5 {
		return nil, fmt.Errorf("pepc: theta %v out of range (0, 1.5)", p.Theta)
	}
	if p.Dt <= 0 {
		return nil, fmt.Errorf("pepc: dt %v must be positive", p.Dt)
	}
	if p.Eps <= 0 {
		p.Eps = 0.05
	}
	w := p.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Sim{p: p, rng: rand.New(rand.NewSource(p.Seed)), workers: w}, nil
}

// N returns the particle count.
func (s *Sim) N() int { return len(s.pos) }

// StepCount returns the number of completed timesteps.
func (s *Sim) StepCount() int { return s.step }

// AddParticle appends one particle and returns its tracking label.
func (s *Sim) AddParticle(pos, vel Vec, charge, mass float64) int32 {
	s.mu.Lock()
	l := s.label
	s.label++
	s.mu.Unlock()
	s.pos = append(s.pos, pos)
	s.vel = append(s.vel, vel)
	s.charge = append(s.charge, charge)
	s.mass = append(s.mass, mass)
	s.labels = append(s.labels, l)
	s.proc = append(s.proc, 0)
	return l
}

// AddPlasmaBall adds n particles uniformly inside a sphere: a neutral
// two-species plasma (alternating ±1 charges) with Maxwellian velocities of
// the given thermal speed. This is the "spherical plasma target" of the
// paper's beam demonstration.
func (s *Sim) AddPlasmaBall(n int, center Vec, radius, thermalSpeed float64) {
	for i := 0; i < n; i++ {
		// Uniform point in the sphere by rejection.
		var p Vec
		for {
			p = Vec{
				s.rng.Float64()*2 - 1,
				s.rng.Float64()*2 - 1,
				s.rng.Float64()*2 - 1,
			}
			if p.Dot(p) <= 1 {
				break
			}
		}
		q := 1.0
		if i%2 == 1 {
			q = -1.0
		}
		v := Vec{
			s.rng.NormFloat64() * thermalSpeed,
			s.rng.NormFloat64() * thermalSpeed,
			s.rng.NormFloat64() * thermalSpeed,
		}
		s.AddParticle(center.Add(p.Scale(radius)), v, q, 1)
	}
}

// SetBeam replaces the beam parameters; safe to call while Step runs.
func (s *Sim) SetBeam(b BeamParams) {
	s.mu.Lock()
	s.beam = b
	s.mu.Unlock()
}

// Beam returns the current beam parameters.
func (s *Sim) Beam() BeamParams {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.beam
}

// SetDamping sets a per-step velocity damping factor in [0,1): the
// "assisting an initially random plasma system towards a cold, ordered
// state" feature of section 3.4. 0 disables damping.
func (s *Sim) SetDamping(d float64) {
	s.mu.Lock()
	if d < 0 {
		d = 0
	}
	if d > 0.99 {
		d = 0.99
	}
	s.damp = d
	s.mu.Unlock()
}

// injectBeam adds the per-step beam particles.
func (s *Sim) injectBeam(b BeamParams) {
	if b.Intensity <= 0 {
		return
	}
	dir := b.Direction
	if l := dir.Len(); l > 0 {
		dir = dir.Scale(1 / l)
	} else {
		dir = Vec{0, 0, 1}
	}
	for i := 0; i < b.Intensity; i++ {
		jitter := Vec{
			(s.rng.Float64() - 0.5) * 2 * b.Spread,
			(s.rng.Float64() - 0.5) * 2 * b.Spread,
			(s.rng.Float64() - 0.5) * 2 * b.Spread,
		}
		s.AddParticle(b.Origin.Add(jitter), dir.Scale(b.Speed), b.Charge, 1)
	}
}

// Step advances the simulation one leapfrog timestep using tree forces.
func (s *Sim) Step() {
	s.mu.RLock()
	beam := s.beam
	damp := s.damp
	s.mu.RUnlock()

	s.injectBeam(beam)
	if len(s.pos) == 0 {
		s.step++
		return
	}

	s.forces = slices.Grow(s.forces[:0], len(s.pos))[:len(s.pos)]
	forces := s.forces
	s.forcesTree(forces, s.p.Theta)
	dt := s.p.Dt
	for i := range s.pos {
		inv := dt / s.mass[i]
		s.vel[i] = s.vel[i].Add(forces[i].Scale(inv))
		if damp > 0 {
			s.vel[i] = s.vel[i].Scale(1 - damp)
		}
		s.pos[i] = s.pos[i].Add(s.vel[i].Scale(dt))
	}
	s.step++
}

// ForcesTree computes per-particle forces with the Barnes–Hut tree at the
// given theta, in parallel across the worker pool. The per-worker index
// ranges double as the "processor domains" exported for visualization.
func (s *Sim) ForcesTree(theta float64) []Vec {
	forces := make([]Vec, len(s.pos))
	s.forcesTree(forces, theta)
	return forces
}

// forcesTree fills forces, one per particle, rebuilding the Sim's tree in
// place.
func (s *Sim) forcesTree(forces []Vec, theta float64) {
	n := len(s.pos)
	if n == 0 {
		return
	}
	t := &s.tree
	t.build(s.pos, s.charge)
	eps2 := s.p.Eps * s.p.Eps

	workers := s.workers
	if workers > n {
		workers = n
	}
	var total int64
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		// Every chunk runs on its own goroutine, even at one worker. The
		// go statement and wg.Wait are the step's scheduling points: they
		// move the writers that the previous Emit woke out of this P's
		// runnext onto its run queue, where the other P can steal them,
		// and park the caller so its P runs the scheduler. Running the
		// chunk inline left those writers waiting behind the next step:
		// steer→observe p50 read 20–34 % worse on every benchmark workload.
		go func(w, lo, hi int) {
			defer wg.Done()
			var stats int64
			for i := lo; i < hi; i++ {
				e := t.forceAt(0, s.pos[i], int32(i), theta, eps2, &stats)
				forces[i] = e.Scale(s.charge[i])
				s.proc[i] = int32(w)
			}
			atomic.AddInt64(&total, stats)
		}(w, lo, hi)
	}
	wg.Wait()
	atomic.StoreInt64(&s.interactions, total)
}

// ForcesDirect computes forces by O(N²) direct summation: the baseline the
// paper contrasts the tree algorithm against.
func (s *Sim) ForcesDirect() []Vec {
	n := len(s.pos)
	forces := make([]Vec, n)
	eps2 := s.p.Eps * s.p.Eps

	workers := s.workers
	if workers > n {
		workers = n
	}
	if workers == 0 {
		return forces
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				var e Vec
				for j := 0; j < n; j++ {
					if i == j {
						continue
					}
					r := s.pos[i].Sub(s.pos[j])
					d2 := r.Dot(r) + eps2
					inv := 1 / (d2 * math.Sqrt(d2))
					e = e.Add(r.Scale(s.charge[j] * inv))
				}
				forces[i] = e.Scale(s.charge[i])
			}
		}(lo, hi)
	}
	wg.Wait()
	return forces
}

// Interactions reports the interaction count of the last ForcesTree call;
// it grows as O(N log N), which the scaling experiment verifies without
// depending on wall-clock noise.
func (s *Sim) Interactions() int64 { return atomic.LoadInt64(&s.interactions) }

// Energy returns kinetic and potential energy. The potential sum uses the
// tree with a tight theta, so it is fast enough for monitoring; tests use
// small N where the approximation error is negligible.
func (s *Sim) Energy() (kinetic, potential float64) {
	for i := range s.pos {
		kinetic += 0.5 * s.mass[i] * s.vel[i].Dot(s.vel[i])
	}
	if len(s.pos) < 2 {
		return kinetic, 0
	}
	var t tree
	t.build(s.pos, s.charge)
	eps2 := s.p.Eps * s.p.Eps
	for i := range s.pos {
		potential += 0.5 * s.charge[i] * t.potentialAt(0, s.pos[i], int32(i), 0.2, eps2)
	}
	return kinetic, potential
}

// Snapshot is the per-step sample PEPC ships to visualization: "particle
// data-space comprising coordinates, velocities, charge, processor number and
// tracking-label plus information on the tree structure".
type Snapshot struct {
	Step   int
	Pos    []Vec
	Vel    []Vec
	Charge []float64
	Proc   []int32
	Labels []int32
	// Domains are per-worker particle bounding boxes (min, max).
	Domains [][2]Vec
}

// Snapshot captures the current particle state and domain decomposition.
func (s *Sim) Snapshot() *Snapshot {
	n := len(s.pos)
	snap := &Snapshot{
		Step:   s.step,
		Pos:    append([]Vec(nil), s.pos...),
		Vel:    append([]Vec(nil), s.vel...),
		Charge: append([]float64(nil), s.charge...),
		Proc:   append([]int32(nil), s.proc...),
		Labels: append([]int32(nil), s.labels...),
	}
	if n == 0 {
		return snap
	}
	// Bounding box per processor domain.
	boxes := make(map[int32][2]Vec)
	for i, p := range snap.Pos {
		w := snap.Proc[i]
		b, ok := boxes[w]
		if !ok {
			boxes[w] = [2]Vec{p, p}
			continue
		}
		b[0].X = math.Min(b[0].X, p.X)
		b[0].Y = math.Min(b[0].Y, p.Y)
		b[0].Z = math.Min(b[0].Z, p.Z)
		b[1].X = math.Max(b[1].X, p.X)
		b[1].Y = math.Max(b[1].Y, p.Y)
		b[1].Z = math.Max(b[1].Z, p.Z)
		boxes[w] = b
	}
	ids := make([]int, 0, len(boxes))
	for w := range boxes {
		ids = append(ids, int(w))
	}
	sort.Ints(ids)
	for _, w := range ids {
		snap.Domains = append(snap.Domains, boxes[int32(w)])
	}
	return snap
}

// KineticEnergy returns the kinetic energy only (cheap monitored quantity).
func (s *Sim) KineticEnergy() float64 {
	k := 0.0
	for i := range s.pos {
		k += 0.5 * s.mass[i] * s.vel[i].Dot(s.vel[i])
	}
	return k
}
