// Package pepc implements a mesh-free electrostatic plasma simulation in the
// style of PEPC (Parallel Electrostatic Plasma Coulomb-solver), the
// demonstration application of the paper's section 3.4: "a hierarchical tree
// algorithm to perform potential and force summation for charged particles in
// a time O(N log N)". Forces are computed with a Barnes–Hut octree carrying
// monopole and dipole moments; an O(N²) direct summation is included as the
// accuracy and scaling baseline. The particle set is decomposed across a
// goroutine worker pool, and per-worker domain boxes are exported for
// visualization exactly as the paper ships "information on the tree
// structure ... consisting of a set of node coordinates representing each
// processor domain".
package pepc

import "math"

// Vec is a 3-vector; pepc keeps its own to stay independent of the render
// package.
type Vec struct{ X, Y, Z float64 }

// Add returns v + w.
func (v Vec) Add(w Vec) Vec { return Vec{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec) Sub(w Vec) Vec { return Vec{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v * s.
func (v Vec) Scale(s float64) Vec { return Vec{v.X * s, v.Y * s, v.Z * s} }

// Dot returns v · w.
func (v Vec) Dot(w Vec) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Len returns |v|.
func (v Vec) Len() float64 { return math.Sqrt(v.Dot(v)) }

// node is one octree cell. Nodes live in a tree's flat slice and name their
// children by index; index 0 is the root, so a zero child means none.
type node struct {
	// What every visit of the force walk reads comes first, so a visit
	// touches as few cache lines as it can; the multipole data is about com.
	com      Vec     // |q|-weighted centroid: stable expansion centre for mixed signs
	half     float64 // half edge length
	q        float64 // monopole: total charge
	dipole   Vec     // dipole moment about com
	children [8]int32
	head     int32 // a leaf's first particle, in insertion order; -1 if none
	leaf     bool
	// Read only while building.
	tail   int32   // a leaf's last particle
	count  int32   // particles in the leaf's chain
	center Vec     // geometric centre of the cell
	absQ   float64 // total |q|: com's weight in the parent's centroid
}

// leafCap is the number of particles a leaf holds before it splits; a leaf
// whose half edge is below 1e-9 stops splitting and holds any number.
const leafCap = 8

// tree is a Barnes–Hut octree whose storage is reused by every rebuild.
type tree struct {
	nodes  []node
	next   []int32 // next[i]: particle after i in its leaf's chain, or -1
	pos    []Vec   // the particles the tree was last built over
	charge []float64
}

// build rebuilds the octree over all particles, reusing the tree's storage.
func (t *tree) build(pos []Vec, charge []float64) {
	// Bounding cube.
	lo := pos[0]
	hi := pos[0]
	for _, p := range pos[1:] {
		lo.X = math.Min(lo.X, p.X)
		lo.Y = math.Min(lo.Y, p.Y)
		lo.Z = math.Min(lo.Z, p.Z)
		hi.X = math.Max(hi.X, p.X)
		hi.Y = math.Max(hi.Y, p.Y)
		hi.Z = math.Max(hi.Z, p.Z)
	}
	c := lo.Add(hi).Scale(0.5)
	half := math.Max(hi.X-lo.X, math.Max(hi.Y-lo.Y, hi.Z-lo.Z))/2 + 1e-9

	if cap(t.next) < len(pos) {
		t.next = make([]int32, len(pos))
	}
	t.next = t.next[:len(pos)]
	t.pos, t.charge = pos, charge
	t.nodes = append(t.nodes[:0], newNode(c, half))
	for i := range pos {
		t.insert(0, int32(i))
	}
	t.computeMoments(0)
}

// newNode returns an empty leaf cell.
func newNode(center Vec, half float64) node {
	return node{center: center, half: half, leaf: true, head: -1, tail: -1}
}

// octant returns which child cell position p falls into.
func (n *node) octant(p Vec) int {
	o := 0
	if p.X >= n.center.X {
		o |= 1
	}
	if p.Y >= n.center.Y {
		o |= 2
	}
	if p.Z >= n.center.Z {
		o |= 4
	}
	return o
}

// childCenter returns the centre of child octant o.
func (n *node) childCenter(o int) Vec {
	h := n.half / 2
	c := n.center
	if o&1 != 0 {
		c.X += h
	} else {
		c.X -= h
	}
	if o&2 != 0 {
		c.Y += h
	} else {
		c.Y -= h
	}
	if o&4 != 0 {
		c.Z += h
	} else {
		c.Z -= h
	}
	return c
}

// insert adds particle i to the subtree at node n. It holds no *node across
// a child's creation, which may move t.nodes.
func (t *tree) insert(n, i int32) {
	nd := &t.nodes[n]
	if nd.leaf {
		if nd.count < leafCap || nd.half < 1e-9 {
			t.next[i] = -1
			if nd.head < 0 {
				nd.head = i
			} else {
				t.next[nd.tail] = i
			}
			nd.tail = i
			nd.count++
			return
		}
		// Split: push existing particles down, in chain order.
		nd.leaf = false
		j := nd.head
		nd.head, nd.tail, nd.count = -1, -1, 0
		for j >= 0 {
			after := t.next[j]
			t.insert(t.child(n, j), j)
			j = after
		}
	}
	t.insert(t.child(n, i), i)
}

// child returns the child of n that particle i falls into, creating it.
func (t *tree) child(n, i int32) int32 {
	nd := &t.nodes[n]
	o := nd.octant(t.pos[i])
	if c := nd.children[o]; c != 0 {
		return c
	}
	c := int32(len(t.nodes))
	nd.children[o] = c
	child := newNode(nd.childCenter(o), nd.half/2)
	t.nodes = append(t.nodes, child)
	return c
}

// computeMoments fills q, absQ, com and dipole bottom-up.
func (t *tree) computeMoments(n int32) {
	nd := &t.nodes[n]
	pos, charge := t.pos, t.charge
	if nd.leaf {
		for i := nd.head; i >= 0; i = t.next[i] {
			q := charge[i]
			nd.q += q
			a := math.Abs(q)
			nd.absQ += a
			nd.com = nd.com.Add(pos[i].Scale(a))
		}
	} else {
		for _, ci := range nd.children {
			if ci == 0 {
				continue
			}
			t.computeMoments(ci)
			c := &t.nodes[ci]
			nd.q += c.q
			// Recombine |q|-weighted centroids using child absolute charge.
			nd.absQ += c.absQ
			nd.com = nd.com.Add(c.com.Scale(c.absQ))
		}
	}
	if nd.absQ > 0 {
		nd.com = nd.com.Scale(1 / nd.absQ)
	} else {
		nd.com = nd.center
	}
	// Dipole about com.
	if nd.leaf {
		for i := nd.head; i >= 0; i = t.next[i] {
			nd.dipole = nd.dipole.Add(pos[i].Sub(nd.com).Scale(charge[i]))
		}
	} else {
		for _, ci := range nd.children {
			if ci == 0 {
				continue
			}
			c := &t.nodes[ci]
			// Child dipole shifted to this com: D' = D + q_c (com_c - com).
			nd.dipole = nd.dipole.Add(c.dipole).Add(c.com.Sub(nd.com).Scale(c.q))
		}
	}
}

// forceAt computes the electric field at position p (belonging to particle
// self, which is excluded from direct sums) from the subtree at node n, using
// the multipole acceptance criterion size/distance < theta. stats, when
// non-nil, counts interactions.
func (t *tree) forceAt(n int32, p Vec, self int32, theta, eps2 float64, stats *int64) Vec {
	nd := &t.nodes[n]
	r := p.Sub(nd.com)
	d2 := r.Dot(r)
	size := 2 * nd.half

	if !nd.leaf && size*size < theta*theta*d2 {
		// Well separated: monopole + dipole approximation.
		if stats != nil {
			*stats++
		}
		return fieldMonoDipole(r, d2+eps2, nd.q, nd.dipole)
	}
	if nd.leaf {
		// The slices and the count stay in locals: a store through stats
		// inside the loop would make every particle reload them.
		var e Vec
		var direct int64
		next, pos, charge := t.next, t.pos, t.charge
		for i := nd.head; i >= 0; i = next[i] {
			if i == self {
				continue
			}
			direct++
			ri := p.Sub(pos[i])
			di2 := ri.Dot(ri) + eps2
			inv := 1 / (di2 * math.Sqrt(di2))
			e = e.Add(ri.Scale(charge[i] * inv))
		}
		if stats != nil {
			*stats += direct
		}
		return e
	}
	var e Vec
	for _, c := range nd.children {
		if c != 0 {
			e = e.Add(t.forceAt(c, p, self, theta, eps2, stats))
		}
	}
	return e
}

// fieldMonoDipole evaluates the far-field E of a monopole q and dipole D at
// displacement r (|r|² pre-softened as d2).
func fieldMonoDipole(r Vec, d2, q float64, d Vec) Vec {
	invD := 1 / math.Sqrt(d2)
	inv3 := invD * invD * invD
	e := r.Scale(q * inv3)
	// Dipole field: (3(D·r̂)r̂ − D)/|r|³.
	rhat := r.Scale(invD)
	e = e.Add(rhat.Scale(3 * d.Dot(rhat) * inv3).Sub(d.Scale(inv3)))
	return e
}

// potentialAt evaluates the potential at p from the subtree at node n with
// the same acceptance rule.
func (t *tree) potentialAt(n int32, p Vec, self int32, theta, eps2 float64) float64 {
	nd := &t.nodes[n]
	r := p.Sub(nd.com)
	d2 := r.Dot(r)
	size := 2 * nd.half
	if !nd.leaf && size*size < theta*theta*d2 {
		d := math.Sqrt(d2 + eps2)
		return nd.q/d + nd.dipole.Dot(r)/(d*d*d)
	}
	if nd.leaf {
		var phi float64
		next, pos, charge := t.next, t.pos, t.charge
		for i := nd.head; i >= 0; i = next[i] {
			if i == self {
				continue
			}
			ri := p.Sub(pos[i])
			phi += charge[i] / math.Sqrt(ri.Dot(ri)+eps2)
		}
		return phi
	}
	var phi float64
	for _, c := range nd.children {
		if c != 0 {
			phi += t.potentialAt(c, p, self, theta, eps2)
		}
	}
	return phi
}
