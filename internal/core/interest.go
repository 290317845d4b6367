package core

// clientDesc is the immutable per-client delivery descriptor: the delivery
// tier the client attached at plus its current interest set. It is held
// behind an atomic.Pointer on clientConn and swapped copy-on-write by the
// client's own subscribe/unsubscribe dispatch (single-writer: the read
// loop), so the broadcast hot path and the relay workers read it with one
// atomic load — no lock, no allocation, no mutation in place.
type clientDesc struct {
	// tier never changes over the descriptor's client lifetime — tier is an
	// attach-time property, so the session's tier-partitioned client
	// snapshot (clientSnap) stays valid across interest swaps without a
	// rebuild.
	tier Tier
	// allChans/allParams mark the subscribe-all state per kind; the maps
	// are consulted only when the corresponding flag is false.
	allChans  bool
	allParams bool
	chans     map[string]struct{}
	params    map[string]struct{}
}

// newClientDesc builds the attach-time descriptor: subscribe-all per kind
// until the initial subscriptions narrow it. With no subscriptions it is
// also the subscribe-all reset (flagSubAll).
func newClientDesc(tier Tier, subs []Subscription) *clientDesc {
	d := &clientDesc{tier: tier, allChans: true, allParams: true}
	return d.withSubs(subs)
}

// wantsSample reports whether any of the frame's channel keys is in the
// client's interest set. Empty keys never reach here — fanout treats a
// keyless frame as unfiltered.
//
// Called from the fanout hot path and the relay worker drains: map reads
// on an immutable descriptor, no allocation.
func (d *clientDesc) wantsSample(keys []string) bool {
	if d.allChans {
		return true
	}
	if len(d.chans) == 0 {
		return false
	}
	for _, k := range keys {
		if _, ok := d.chans[k]; ok {
			return true
		}
	}
	return false
}

// wantsParams is wantsSample for parameter-update keys.
func (d *clientDesc) wantsParams(keys []string) bool {
	if d.allParams {
		return true
	}
	if len(d.params) == 0 {
		return false
	}
	for _, k := range keys {
		if _, ok := d.params[k]; ok {
			return true
		}
	}
	return false
}

// clone deep-copies the descriptor; the copy-on-write step of every
// interest mutation.
func (d *clientDesc) clone() *clientDesc {
	nd := &clientDesc{tier: d.tier, allChans: d.allChans, allParams: d.allParams}
	if len(d.chans) > 0 {
		nd.chans = make(map[string]struct{}, len(d.chans))
		for k := range d.chans {
			nd.chans[k] = struct{}{}
		}
	}
	if len(d.params) > 0 {
		nd.params = make(map[string]struct{}, len(d.params))
		for k := range d.params {
			nd.params[k] = struct{}{}
		}
	}
	return nd
}

// withSubs returns a descriptor with the selectors added. The first
// selective subscription for a kind narrows that kind from subscribe-all to
// exactly the named set; later ones accumulate.
func (d *clientDesc) withSubs(subs []Subscription) *clientDesc {
	if len(subs) == 0 {
		return d
	}
	nd := d.clone()
	for _, sub := range subs {
		switch sub.Kind {
		case SubChannel:
			if nd.allChans {
				nd.allChans = false
			}
			if nd.chans == nil {
				nd.chans = make(map[string]struct{}, len(subs))
			}
			nd.chans[sub.Name] = struct{}{}
		case SubParam:
			if nd.allParams {
				nd.allParams = false
			}
			if nd.params == nil {
				nd.params = make(map[string]struct{}, len(subs))
			}
			nd.params[sub.Name] = struct{}{}
		}
	}
	return nd
}

// withoutSubs returns a descriptor with the selectors removed. Removing
// from a subscribe-all kind is a no-op (there is no set to shrink). With no
// selectors at all it clears both kinds to interested-in-nothing — the
// protocol's "unsubscribe everything".
func (d *clientDesc) withoutSubs(subs []Subscription) *clientDesc {
	nd := d.clone()
	if len(subs) == 0 {
		nd.allChans, nd.allParams = false, false
		nd.chans, nd.params = nil, nil
		return nd
	}
	for _, sub := range subs {
		switch sub.Kind {
		case SubChannel:
			delete(nd.chans, sub.Name)
		case SubParam:
			delete(nd.params, sub.Name)
		}
	}
	return nd
}
