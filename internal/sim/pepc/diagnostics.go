package pepc

import (
	"fmt"

	"repro/internal/viz"
)

// This file implements the paper's announced PEPC extension (section 3.4):
// "a future extension will also provide selected diagnostic quantities
// mapped onto a user-defined mesh, such as charge density, current, electric
// fields and laser intensity."

// MeshSpec defines the user-defined diagnostic mesh: a regular grid covering
// [Min, Max] with Nx×Ny×Nz sample points.
type MeshSpec struct {
	Nx, Ny, Nz int
	Min, Max   Vec
}

// Validate checks the mesh definition.
func (m MeshSpec) Validate() error {
	if m.Nx < 2 || m.Ny < 2 || m.Nz < 2 {
		return fmt.Errorf("pepc: diagnostic mesh %dx%dx%d too small", m.Nx, m.Ny, m.Nz)
	}
	if m.Max.X <= m.Min.X || m.Max.Y <= m.Min.Y || m.Max.Z <= m.Min.Z {
		return fmt.Errorf("pepc: diagnostic mesh has empty extent")
	}
	return nil
}

// field allocates the output field with world-space placement.
func (m MeshSpec) field() *viz.ScalarField {
	f := viz.NewScalarField(m.Nx, m.Ny, m.Nz)
	f.OriginX, f.OriginY, f.OriginZ = m.Min.X, m.Min.Y, m.Min.Z
	f.SpacingX = (m.Max.X - m.Min.X) / float64(m.Nx-1)
	f.SpacingY = (m.Max.Y - m.Min.Y) / float64(m.Ny-1)
	f.SpacingZ = (m.Max.Z - m.Min.Z) / float64(m.Nz-1)
	return f
}

// cellVolume returns the volume represented by one mesh cell.
func (m MeshSpec) cellVolume() float64 {
	dx := (m.Max.X - m.Min.X) / float64(m.Nx-1)
	dy := (m.Max.Y - m.Min.Y) / float64(m.Ny-1)
	dz := (m.Max.Z - m.Min.Z) / float64(m.Nz-1)
	return dx * dy * dz
}

// depositCIC spreads per-particle weights onto the mesh with cloud-in-cell
// (trilinear) deposition and returns the raw per-node totals.
func (s *Sim) depositCIC(mesh MeshSpec, weight func(i int) float64) *viz.ScalarField {
	f := mesh.field()
	invDX := 1 / f.SpacingX
	invDY := 1 / f.SpacingY
	invDZ := 1 / f.SpacingZ
	for i, p := range s.pos {
		// Normalised cell coordinates.
		gx := (p.X - mesh.Min.X) * invDX
		gy := (p.Y - mesh.Min.Y) * invDY
		gz := (p.Z - mesh.Min.Z) * invDZ
		i0, j0, k0 := int(gx), int(gy), int(gz)
		if gx < 0 || gy < 0 || gz < 0 || i0 >= mesh.Nx-1 || j0 >= mesh.Ny-1 || k0 >= mesh.Nz-1 {
			continue // outside the user-defined mesh
		}
		fx, fy, fz := gx-float64(i0), gy-float64(j0), gz-float64(k0)
		w := weight(i)
		for di := 0; di <= 1; di++ {
			wx := 1 - fx
			if di == 1 {
				wx = fx
			}
			for dj := 0; dj <= 1; dj++ {
				wy := 1 - fy
				if dj == 1 {
					wy = fy
				}
				for dk := 0; dk <= 1; dk++ {
					wz := 1 - fz
					if dk == 1 {
						wz = fz
					}
					idx := f.Index(i0+di, j0+dj, k0+dk)
					f.Data[idx] += w * wx * wy * wz
				}
			}
		}
	}
	return f
}

// ChargeDensity maps the particles' charge onto the mesh as a density
// (charge per unit volume, CIC-deposited).
func (s *Sim) ChargeDensity(mesh MeshSpec) (*viz.ScalarField, error) {
	if err := mesh.Validate(); err != nil {
		return nil, err
	}
	f := s.depositCIC(mesh, func(i int) float64 { return s.charge[i] })
	inv := 1 / mesh.cellVolume()
	for i := range f.Data {
		f.Data[i] *= inv
	}
	return f, nil
}

// CurrentDensity maps one component of the particles' current (q·v) onto
// the mesh. axis selects X/Y/Z via viz.Axis.
func (s *Sim) CurrentDensity(mesh MeshSpec, axis viz.Axis) (*viz.ScalarField, error) {
	if err := mesh.Validate(); err != nil {
		return nil, err
	}
	f := s.depositCIC(mesh, func(i int) float64 {
		switch axis {
		case viz.AxisX:
			return s.charge[i] * s.vel[i].X
		case viz.AxisY:
			return s.charge[i] * s.vel[i].Y
		default:
			return s.charge[i] * s.vel[i].Z
		}
	})
	inv := 1 / mesh.cellVolume()
	for i := range f.Data {
		f.Data[i] *= inv
	}
	return f, nil
}

// ElectricFieldMagnitude samples |E| at every mesh node using the Barnes–Hut
// tree (the same acceptance parameter as the force phase).
func (s *Sim) ElectricFieldMagnitude(mesh MeshSpec, theta float64) (*viz.ScalarField, error) {
	if err := mesh.Validate(); err != nil {
		return nil, err
	}
	f := mesh.field()
	if len(s.pos) == 0 {
		return f, nil
	}
	var t tree
	t.build(s.pos, s.charge)
	eps2 := s.p.Eps * s.p.Eps
	idx := 0
	for k := 0; k < mesh.Nz; k++ {
		for j := 0; j < mesh.Ny; j++ {
			for i := 0; i < mesh.Nx; i++ {
				x, y, z := f.WorldPos(i, j, k)
				e := t.forceAt(0, Vec{x, y, z}, -1, theta, eps2, nil)
				f.Data[idx] = e.Len()
				idx++
			}
		}
	}
	return f, nil
}

// Potential samples the electrostatic potential at every mesh node via the
// tree.
func (s *Sim) Potential(mesh MeshSpec, theta float64) (*viz.ScalarField, error) {
	if err := mesh.Validate(); err != nil {
		return nil, err
	}
	f := mesh.field()
	if len(s.pos) == 0 {
		return f, nil
	}
	var t tree
	t.build(s.pos, s.charge)
	eps2 := s.p.Eps * s.p.Eps
	idx := 0
	for k := 0; k < mesh.Nz; k++ {
		for j := 0; j < mesh.Ny; j++ {
			for i := 0; i < mesh.Nx; i++ {
				x, y, z := f.WorldPos(i, j, k)
				f.Data[idx] = t.potentialAt(0, Vec{x, y, z}, -1, theta, eps2)
				idx++
			}
		}
	}
	return f, nil
}
