//go:build amd64 && !amd64.v3

package pepc

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// The golden hashes pin the exact float bits the tree produces: the
// summation order of the force walk, the moment recombination, the worker
// domains and the interaction count. They hold only where Go does not fuse
// x*y+z into one FMA instruction (amd64 below v3); arm64 does, so the build
// tag keeps the test to the architecture the constants were recorded on.

// hashSim folds the float bits of the sim's state and diagnostics into one
// FNV-64a sum.
func hashSim(t *testing.T, s *Sim) uint64 {
	t.Helper()
	h := fnv.New64a()
	var b [8]byte
	f := func(x float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	v := func(x Vec) { f(x.X); f(x.Y); f(x.Z) }
	for i := range s.pos {
		v(s.pos[i])
		v(s.vel[i])
		binary.LittleEndian.PutUint32(b[:4], uint32(s.proc[i]))
		h.Write(b[:4])
	}
	binary.LittleEndian.PutUint64(b[:], uint64(s.Interactions()))
	h.Write(b[:])
	k, p := s.Energy()
	f(k)
	f(p)
	field, err := s.ElectricFieldMagnitude(MeshSpec{Nx: 4, Ny: 4, Nz: 4,
		Min: Vec{-1.5, -1.5, -1.5}, Max: Vec{1.5, 1.5, 1.5}}, s.p.Theta)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range field.Data {
		f(float64(x))
	}
	return h.Sum64()
}

func TestGoldenTreeBits(t *testing.T) {
	cases := []struct {
		name  string
		want  uint64
		build func(t *testing.T) *Sim
	}{
		{"bench-shape", 0x83f2f07dd858e636, func(t *testing.T) *Sim {
			s := benchSim(t)
			for i := 0; i < 3000; i++ {
				s.Step()
			}
			return s
		}},
		{"beam-4-workers", 0x83060e4ef279b7b0, func(t *testing.T) *Sim {
			s, err := New(Params{Theta: 0.3, Dt: 0.01, Eps: 0.05, Workers: 4, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			s.AddPlasmaBall(500, Vec{}, 1, 0.05)
			s.SetBeam(BeamParams{Charge: -1, Intensity: 3, Direction: Vec{1, 0.2, 0},
				Speed: 2, Origin: Vec{-1.2, 0, 0}, Spread: 0.1})
			for i := 0; i < 40; i++ {
				s.Step()
			}
			return s
		}},
		{"2000-particles", 0x29ff6a8c09a059cf, func(t *testing.T) *Sim {
			s, err := New(Params{Theta: 0.5, Dt: 0.005, Workers: 2, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			s.AddPlasmaBall(2000, Vec{}, 1, 0.1)
			for i := 0; i < 5; i++ {
				s.Step()
			}
			return s
		}},
		{"coincident", 0x6e4d2488f630a2e9, func(t *testing.T) *Sim {
			// More than leafCap particles at one point: the leaf stops
			// splitting below 1e-9 and holds them all.
			s, err := New(Params{Theta: 0.5, Dt: 0.01, Eps: 0.05, Workers: 1, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				s.AddParticle(Vec{1, 1, 1}, Vec{}, 1, 1)
			}
			s.AddParticle(Vec{-0.5, 0.25, 0}, Vec{}, -1, 1)
			for i := 0; i < 50; i++ {
				s.Step()
			}
			return s
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := hashSim(t, c.build(t)); got != c.want {
				t.Errorf("state hash %#x, want %#x", got, c.want)
			}
		})
	}
}
