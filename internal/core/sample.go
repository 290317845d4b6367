package core

// Channel is one named data array inside a Sample: a scalar field, particle
// coordinate block, or monitored quantity. Dims gives the logical shape;
// scalars use Dims = [3]int{1, 1, 1}.
//
// In a received sample, every channel's Data is a window on one backing
// array the decoder allocated for that sample; the consumer owns it. Each
// window's capacity ends at its length, so appending to one channel's Data
// copies instead of writing into the next channel's.
type Channel struct {
	Dims [3]int
	Data []float64
}

// Scalar wraps a single monitored value as a Channel.
func Scalar(v float64) Channel {
	return Channel{Dims: [3]int{1, 1, 1}, Data: []float64{v}}
}

// Value returns the first element, the idiom for scalar channels.
func (c Channel) Value() float64 {
	if len(c.Data) == 0 {
		return 0
	}
	return c.Data[0]
}

// Sample is what the simulation emits for consumption by visualization
// components: "the simulation component periodically (or as demanded by the
// steerer component) emits 'samples'" (section 2.1).
//
// A sample received from a session (Client.Samples) belongs to the
// consumer: its channels share one backing array that no later decode
// reuses.
type Sample struct {
	// Step is the simulation timestep the sample was taken at.
	Step int64
	// Channels maps channel names to data.
	Channels map[string]Channel
}

// NewSample allocates an empty sample for the given step.
func NewSample(step int64) *Sample {
	return &Sample{Step: step, Channels: make(map[string]Channel)}
}

// ByteSize estimates the payload size of the sample in bytes (8 per value).
func (s *Sample) ByteSize() int {
	n := 0
	for _, c := range s.Channels {
		n += len(c.Data) * 8
	}
	return n
}

// ViewState is the shared visualization state synchronised across all
// session participants: camera plus named visualization parameters such as
// isosurface thresholds or cutting-plane positions (section 4.3).
type ViewState struct {
	// Seq is a monotonically increasing revision number assigned by the
	// session; later revisions supersede earlier ones.
	Seq uint64
	// Eye, Center, Up, FovY define the camera.
	Eye, Center, Up [3]float64
	FovY            float64
	// VizParams carries tool parameters (e.g. "iso", "cutplane-z").
	VizParams map[string]float64
}

// Control is the verdict a simulation receives when polling for steering.
type Control int

// Control values.
const (
	// ControlContinue means run the next iteration.
	ControlContinue Control = iota
	// ControlPaused means hold: poll again (or block) until resumed.
	ControlPaused
	// ControlStop means terminate the run cleanly.
	ControlStop
	// ControlCheckpoint means write a checkpoint, then continue.
	ControlCheckpoint
)

// String returns the control name.
func (c Control) String() string {
	switch c {
	case ControlContinue:
		return "continue"
	case ControlPaused:
		return "paused"
	case ControlStop:
		return "stop"
	case ControlCheckpoint:
		return "checkpoint"
	default:
		return "unknown"
	}
}

// Role distinguishes the one steering master from passive observers.
type Role int

// Roles.
const (
	// RoleObserver participants view synchronised output but cannot steer.
	RoleObserver Role = iota
	// RoleMaster is the single participant allowed to steer the application
	// and the shared view.
	RoleMaster
)

// String returns the role name.
func (r Role) String() string {
	if r == RoleMaster {
		return "master"
	}
	return "observer"
}

// Tier selects the delivery tier a client attaches at. The tier decides how
// the session moves sample traffic to the client, never what the client may
// do: floor control (Role) and delivery (Tier) are independent axes.
type Tier int

// Delivery tiers.
const (
	// TierSteering delivers every frame inline from the session goroutine:
	// the tier for masters, floor requesters and anything driving a control
	// loop off the sample stream.
	TierSteering Tier = iota
	// TierObserver delivers coalesced freshest-wins batches on the session's
	// observer interval, fanned out by relay workers off the session
	// goroutine: the tier for passive viewers, where the newest state matters
	// and a dropped intermediate frame does not.
	TierObserver
)

// String returns the tier name.
func (t Tier) String() string {
	if t == TierObserver {
		return "observer"
	}
	return "steering"
}

// SubscriptionKind discriminates what a Subscription selects.
type SubscriptionKind int

// Subscription kinds.
const (
	// SubChannel selects a sample channel by name (the PR 2 registry names
	// reflected into Sample.Channels).
	SubChannel SubscriptionKind = iota
	// SubParam selects a registered steering parameter by name; it filters
	// msgParamUpdate broadcasts.
	SubParam
)

// Subscription is one typed interest selector. A client's interest set is
// the union of its subscriptions, kept per kind: subscribing to any channel
// narrows channel delivery to the named ones, subscribing to any parameter
// narrows parameter-update delivery likewise. A kind with no subscriptions
// stays at subscribe-all, the attach default.
type Subscription struct {
	Kind SubscriptionKind
	Name string
}

// ChannelSub returns a sample-channel selector.
func ChannelSub(name string) Subscription { return Subscription{Kind: SubChannel, Name: name} }

// ParamSub returns a steering-parameter selector.
func ParamSub(name string) Subscription { return Subscription{Kind: SubParam, Name: name} }

// ReplayPolicy selects how much journal history an attaching client wants
// replayed before live frames start.
type ReplayPolicy int

// Replay policies.
const (
	// ReplayAll replays the full journaled backlog (events and samples):
	// the zero value.
	ReplayAll ReplayPolicy = iota
	// ReplayEvents replays journaled control traffic but skips bulk samples;
	// an observer that only needs current params/view attaches much faster.
	ReplayEvents
	// ReplayNone skips replay entirely and starts at the live stream.
	ReplayNone
)

// String returns the replay-policy name.
func (p ReplayPolicy) String() string {
	switch p {
	case ReplayEvents:
		return "events"
	case ReplayNone:
		return "none"
	default:
		return "all"
	}
}
