package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestEnvelopeRoundTripTypes encodes one envelope of every message type and
// checks the decoded form field by field.
func TestEnvelopeRoundTripTypes(t *testing.T) {
	view := &ViewState{
		Seq: 7, Eye: [3]float64{1, 2, 3}, Center: [3]float64{4, 5, 6},
		Up: [3]float64{0, 1, 0}, FovY: 0.78,
		VizParams: map[string]float64{"iso": 0.5, "cut": 2},
	}
	sample := NewSample(42)
	sample.Channels["phi"] = Channel{Dims: [3]int{2, 2, 1}, Data: []float64{1, 2, 3, 4}}
	sample.Channels["seg"] = Scalar(0.7)
	params := []Param{
		{Name: "g", Type: FloatParam, Value: FloatValue(1.5), Min: 0, Max: 10, Help: "coupling"},
		{Name: "scheme", Type: ChoiceParam, Value: StringValue("fast"), Choices: []string{"fast", "slow"}},
		{Name: "trace", Type: BoolParam, Value: BoolValue(true)},
	}
	cases := []*envelope{
		{Type: msgAttach, Seq: 1, Attach: &attachMsg{Name: "alice", WantMaster: true, Session: "s1", Priority: 7}},
		{Type: msgWelcome, Seq: 2, Welcome: &welcomeMsg{
			SessionName: "s1", AppName: "lb3d", ClientName: "alice", Master: "bob",
			Role: RoleObserver, Params: params, View: view,
			LeaseMillis: 1500, Policy: FloorPriority, FloorSeq: 42,
		}},
		{Type: msgSample, Sample: sample},
		{Type: msgSetParam, Seq: 3, Sets: []ParamSet{
			{Name: "g", Value: FloatValue(4.5)},
			{Name: "scheme", Value: StringValue("slow")},
			{Name: "iters", Value: IntValue(9)},
		}},
		{Type: msgParamUpdate, Params: params[:1]},
		{Type: msgSetView, Seq: 4, View: view},
		{Type: msgViewUpdate, View: view},
		{Type: msgCommand, Seq: 5, Command: cmdCheckpoint},
		{Type: msgRequestMaster, Seq: 6},
		{Type: msgRequestMaster, Seq: 12, NoWait: true},
		{Type: msgRequestMaster, Seq: 13, Steal: true},
		{Type: msgReleaseMaster, Seq: 14},
		{Type: msgHeartbeat},
		{Type: msgHandoffMaster, Seq: 7, Target: "bob"},
		{Type: msgMasterChanged, Target: "bob", Reason: FloorGranted},
		{Type: msgMasterChanged, Reason: FloorVacated}, // "" target: floor free
		{Type: msgEvent, Event: "resumed"},
		{Type: msgAck, Seq: 8, Ack: &ackMsg{OK: true}},
		{Type: msgAck, Seq: 9, Ack: &ackMsg{Code: codeNotMaster, Err: "nope"}},
		{Type: msgAck, Seq: 15, Ack: &ackMsg{OK: true, Code: codeFloorQueued, Err: `queued at 2 behind "bob"`}},
		{Type: msgDetach},
	}
	for _, e := range cases {
		buf, err := encodeEnvelope(nil, e)
		if err != nil {
			t.Fatalf("encode type %d: %v", e.Type, err)
		}
		cli, srv := net.Pipe()
		go func() {
			cli.Write(buf)
			cli.Close()
		}()
		got, err := decodeEnvelope(wire.NewDecoder(srv), clientEnvelopeBudget, new(envScratch))
		if err != nil {
			t.Fatalf("decode type %d: %v", e.Type, err)
		}
		if got.Type != e.Type || got.Seq != e.Seq {
			t.Fatalf("type/seq: got %d/%d want %d/%d", got.Type, got.Seq, e.Type, e.Seq)
		}
		// Canonical re-encode must be byte-identical.
		buf2, err := encodeEnvelope(nil, got)
		if err != nil {
			t.Fatalf("re-encode type %d: %v", e.Type, err)
		}
		if string(buf) != string(buf2) {
			t.Fatalf("type %d not canonical", e.Type)
		}
		switch e.Type {
		case msgAttach:
			a, want := got.Attach, e.Attach
			if a.Name != want.Name || a.Session != want.Session ||
				a.WantMaster != want.WantMaster || a.Priority != want.Priority ||
				a.Tier != want.Tier || a.Replay != want.Replay ||
				len(a.Subs) != len(want.Subs) {
				t.Fatalf("attach: %+v", got.Attach)
			}
			for i := range a.Subs {
				if a.Subs[i] != want.Subs[i] {
					t.Fatalf("attach subs: %+v", a.Subs)
				}
			}
		case msgWelcome:
			w := got.Welcome
			if w.SessionName != "s1" || w.Master != "bob" || w.Role != RoleObserver || len(w.Params) != 3 {
				t.Fatalf("welcome: %+v", w)
			}
			if w.LeaseMillis != 1500 || w.Policy != FloorPriority || w.FloorSeq != 42 {
				t.Fatalf("welcome floor advertisement: lease %d policy %v seq %d", w.LeaseMillis, w.Policy, w.FloorSeq)
			}
			if w.Params[1].Choices[1] != "slow" || w.Params[2].Value != BoolValue(true) {
				t.Fatalf("welcome params: %+v", w.Params)
			}
			if w.View == nil || w.View.VizParams["iso"] != 0.5 || w.View.Seq != 7 {
				t.Fatalf("welcome view: %+v", w.View)
			}
		case msgSample:
			if got.Sample.Step != 42 || len(got.Sample.Channels) != 2 ||
				got.Sample.Channels["phi"].Data[3] != 4 ||
				got.Sample.Channels["seg"].Value() != 0.7 {
				t.Fatalf("sample: %+v", got.Sample)
			}
		case msgSetParam:
			if len(got.Sets) != 3 || got.Sets[0].Value != FloatValue(4.5) ||
				got.Sets[1].Value != StringValue("slow") || got.Sets[2].Value != IntValue(9) {
				t.Fatalf("sets: %+v", got.Sets)
			}
		case msgSetView, msgViewUpdate:
			if got.View.Eye != view.Eye || got.View.VizParams["cut"] != 2 {
				t.Fatalf("view: %+v", got.View)
			}
		case msgCommand:
			if got.Command != cmdCheckpoint {
				t.Fatalf("command: %v", got.Command)
			}
		case msgHandoffMaster, msgMasterChanged:
			if got.Target != e.Target || got.Reason != e.Reason {
				t.Fatalf("target/reason: %q/%v want %q/%v", got.Target, got.Reason, e.Target, e.Reason)
			}
		case msgRequestMaster:
			if got.NoWait != e.NoWait || got.Steal != e.Steal {
				t.Fatalf("request flags: nowait %v steal %v", got.NoWait, got.Steal)
			}
		case msgEvent:
			if got.Event != "resumed" {
				t.Fatalf("event: %q", got.Event)
			}
		case msgAck:
			if got.Ack.OK != e.Ack.OK || got.Ack.Code != e.Ack.Code || got.Ack.Err != e.Ack.Err {
				t.Fatalf("ack: %+v", got.Ack)
			}
		}
		srv.Close()
	}
}

// TestParseParamsHostileChoiceCount is the regression test for the integer
// overflow a hostile peer could plant in the per-param choice count: the
// bounds check must run in int64 space, erroring instead of wrapping into
// an out-of-range slice panic.
func TestParseParamsHostileChoiceCount(t *testing.T) {
	for _, nch := range []int64{int64(^uint64(0) >> 1), -1, 4} {
		_, err := parseParams(
			[]int64{int64(FloatParam), int64(wire.KindFloat64), 0, nch},
			[]float64{1, 0, 2},
			[]string{"name", "help", ""},
		)
		if !errors.Is(err, errMalformed) {
			t.Fatalf("nch=%d: err = %v, want errMalformed", nch, err)
		}
	}
}

// TestParseGroupsHostileCounts covers the same class for the sample and
// view groups: declared counts that disagree with the frames must error. A
// group shorter than its message requires — a welcome advertising only the
// three floor ints, an attach without its tagAttachExt — is malformed too,
// never decoded with a zero-filled tier or lease, and so is a welcome whose
// advertisement names a version other than ProtoVersion, and a header whose
// message type the codec does not know.
func TestParseGroupsHostileCounts(t *testing.T) {
	if _, err := parseSample([]int64{1, int64(^uint64(0) >> 1)}, []string{"x"}, [][]float64{{1}}); !errors.Is(err, errMalformed) {
		t.Fatalf("hostile sample count err = %v", err)
	}
	if _, err := parseView([]int64{1, int64(^uint64(0) >> 1)}, make([]float64, 10), nil); !errors.Is(err, errMalformed) {
		t.Fatalf("hostile view count err = %v", err)
	}

	welcome := func(floor ...int64) []byte {
		buf := wire.AppendInt64s(nil, tagHeader, []int64{ProtoVersion, int64(msgWelcome), 1, 0, int64(RoleObserver), 5})
		buf = wire.AppendStrings(buf, tagStrs, []string{"s", "app", "c", "m"})
		buf = appendParams(buf, nil)
		return wire.AppendInt64s(buf, tagFloor, floor)
	}
	bareAttach := wire.AppendInt64s(nil, tagHeader, []int64{ProtoVersion, int64(msgAttach), 1, 0, 0, 1})
	bareAttach = wire.AppendStrings(bareAttach, tagStrs, []string{"c", "s"})
	for name, buf := range map[string][]byte{
		"3-int welcome advertisement":         welcome(1500, int64(FloorFIFO), 3),
		"welcome advertising another version": welcome(1500, int64(FloorFIFO), 3, int64(TierSteering), 25, 4),
		"attach without extension":            bareAttach,
		"unknown message type":                wire.AppendInt64s(nil, tagHeader, []int64{ProtoVersion, 99, 1, 0, 0, 0}),
	} {
		_, err := decodeEnvelope(wire.NewDecoder(bytes.NewReader(buf)), clientEnvelopeBudget, new(envScratch))
		if !errors.Is(err, errMalformed) {
			t.Errorf("%s: decode err = %v, want errMalformed", name, err)
		}
	}
}

// TestEncodeRejectsMalformed covers the encoder's refusals: a message type
// whose payload pointer is nil, and a type the codec does not know, fail
// with errMalformed instead of emitting a frame.
func TestEncodeRejectsMalformed(t *testing.T) {
	for name, e := range map[string]*envelope{
		"welcome without payload":  {Type: msgWelcome},
		"sample without payload":   {Type: msgSample},
		"blob without payload":     {Type: msgBlob},
		"set-view without view":    {Type: msgSetView},
		"view update without view": {Type: msgViewUpdate},
		"unknown type":             {Type: 99},
	} {
		if buf, err := encodeEnvelope(nil, e); !errors.Is(err, errMalformed) || buf != nil {
			t.Errorf("%s: encode = %d bytes, err %v; want errMalformed", name, len(buf), err)
		}
	}
}

// TestDecodeSkipsUnknownTags keeps DESIGN.md §4's promise that a field
// group under a tag this revision does not know is skipped: one extra frame,
// counted in nframes, decodes to the same envelope as without it, whether
// its tag lies below or above the codec's tag range.
func TestDecodeSkipsUnknownTags(t *testing.T) {
	sample := NewSample(3)
	sample.Channels["phi"] = Channel{Dims: [3]int{2, 1, 1}, Data: []float64{1, 2}}
	envs := []*envelope{
		{Type: msgSample, Sample: sample},
		{Type: msgWelcome, Seq: 2, Welcome: &welcomeMsg{SessionName: "s", Master: "m", Params: []Param{
			{Name: "g", Type: FloatParam, Value: FloatValue(1.5), Max: 10},
		}}},
		{Type: msgSubscribe, Seq: 3, Subs: []Subscription{{Kind: SubChannel, Name: "phi"}}},
		{Type: msgAck, Seq: 4, Ack: &ackMsg{OK: true}},
		{Type: msgHeartbeat},
	}
	decode := func(buf []byte) *envelope {
		t.Helper()
		e, err := decodeEnvelope(wire.NewDecoder(bytes.NewReader(buf)), clientEnvelopeBudget, new(envScratch))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		return e
	}
	for _, e := range envs {
		buf, err := encodeEnvelope(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		want := decode(buf)
		const body = 16 + 6*8 // the header frame: 16-byte frame header, six int64s
		for _, tag := range []uint32{tagHeader - 1, tagBlobData + 1} {
			extra := append([]byte(nil), buf[:body]...)
			extra = wire.AppendStrings(extra, tag, []string{"from a newer revision"})
			extra = append(extra, buf[body:]...)
			nframes := binary.BigEndian.Uint64(extra[body-8 : body])
			binary.BigEndian.PutUint64(extra[body-8:body], nframes+1)
			if got := decode(extra); !reflect.DeepEqual(got, want) {
				t.Errorf("type %d with tag %#x: got %+v, want %+v", e.Type, tag, got, want)
			}
		}
	}
}

// TestServerEnvelopeBudget proves a hardened (session-side) codec cuts off
// an envelope that streams more payload than any legitimate client message
// needs, while the client-side codec still accepts the same bulk sample.
func TestServerEnvelopeBudget(t *testing.T) {
	sample := NewSample(1)
	for i := 0; i < 10; i++ {
		sample.Channels[fmt.Sprintf("c%02d", i)] = Channel{
			Dims: [3]int{128, 128, 8}, Data: make([]float64, 131072), // 1 MB each
		}
	}
	buf, err := encodeEnvelope(nil, &envelope{Type: msgSample, Sample: sample})
	if err != nil {
		t.Fatal(err)
	}

	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	go func() {
		cli.Write(buf)
		cli.Close()
	}()
	hardened := newCodec(srv)
	hardened.harden()
	if _, err := hardened.read(); err == nil {
		t.Fatal("hardened codec decoded a 10 MB envelope")
	}

	cli2, srv2 := net.Pipe()
	defer cli2.Close()
	defer srv2.Close()
	go func() {
		cli2.Write(buf)
		cli2.Close()
	}()
	if _, err := newCodec(srv2).read(); err != nil {
		t.Fatalf("client codec rejected a legitimate bulk sample: %v", err)
	}
}

// TestAcceptConnRejectsBadMagic proves a non-protocol byte stream (an HTTP
// probe, a gob v1 client) fails the handshake with ErrVersionMismatch
// instead of a codec panic.
func TestAcceptConnRejectsBadMagic(t *testing.T) {
	cli, srv := net.Pipe()
	defer cli.Close()
	errCh := make(chan error, 1)
	go func() {
		_, err := AcceptConn(srv)
		errCh <- err
	}()
	go cli.Write([]byte("GET /steer HTTP/1.1\r\nHost: nope\r\n\r\n"))
	// The server answers with a best-effort version-coded ack before closing.
	reply, err := decodeEnvelope(wire.NewDecoder(cli), clientEnvelopeBudget, new(envScratch))
	if err != nil {
		t.Fatalf("reading rejection: %v", err)
	}
	if reply.Type != msgAck || reply.Ack == nil || reply.Ack.Code != codeVersion {
		t.Fatalf("rejection = %+v", reply)
	}
	if err := <-errCh; !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("AcceptConn err = %v, want ErrVersionMismatch", err)
	}
}

// headedAt encodes e and rewrites its header's version int: the only way to
// produce another version's bytes, since the codec encodes nothing else.
func headedAt(t *testing.T, e *envelope, version int64) []byte {
	t.Helper()
	buf, err := encodeEnvelope(nil, e)
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint64(buf[16:24], uint64(version)) // first int after the 16-byte frame header
	return buf
}

// acceptRejectsAttachAt sends AcceptConn an attach headed with version and
// asserts the refusal: a version-coded ack on the wire, ErrVersionMismatch
// from AcceptConn.
func acceptRejectsAttachAt(t *testing.T, version int64) {
	t.Helper()
	buf := headedAt(t, &envelope{Type: msgAttach, Attach: &attachMsg{Name: "peer"}}, version)
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	errCh := make(chan error, 1)
	go func() {
		_, err := AcceptConn(srv)
		errCh <- err
	}()
	go cli.Write(buf)
	// The rejection ack is written before AcceptConn returns, so read it
	// first; the deadline fails an accepted attach instead of waiting for an
	// ack that never comes.
	cli.SetReadDeadline(time.Now().Add(2 * time.Second))
	reply, err := decodeEnvelope(wire.NewDecoder(cli), clientEnvelopeBudget, new(envScratch))
	if err != nil {
		t.Fatalf("reading rejection: %v", err)
	}
	if reply.Type != msgAck || reply.Ack == nil || reply.Ack.Code != codeVersion {
		t.Fatalf("rejection = %+v", reply)
	}
	if err := <-errCh; !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("AcceptConn err = %v, want ErrVersionMismatch", err)
	}
}

// TestAcceptConnRejectsWrongVersion: a future version's attach fails the
// handshake with a version-coded ack rather than being misparsed.
func TestAcceptConnRejectsWrongVersion(t *testing.T) { acceptRejectsAttachAt(t, 99) }

// TestAcceptConnRejectsV2: a pre-floor-control (v2) peer is refused at the
// handshake, not admitted into a session whose floor frames it cannot read.
func TestAcceptConnRejectsV2(t *testing.T) { acceptRejectsAttachAt(t, 2) }

// TestWrongVersionRejected: both ends speak exactly ProtoVersion. A session
// answers an attach headed with any other version with a version-coded ack
// and fails it with ErrVersionMismatch — older peers (v2 lacks floor
// control; v3 and v4 lack the attach extension and blobs) as much as newer
// ones — and a client refuses a welcome headed with any other version.
func TestWrongVersionRejected(t *testing.T) {
	for _, v := range []int64{2, 3, 4, ProtoVersion + 1, 99} {
		t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) {
			acceptRejectsAttachAt(t, v)

			welcome := headedAt(t, &envelope{Type: msgWelcome, Seq: 1, Welcome: &welcomeMsg{SessionName: "s", ClientName: "c"}}, v)
			cli2, srv2 := net.Pipe()
			defer srv2.Close()
			go func() {
				newCodec(srv2).read() // consume the attach
				srv2.Write(welcome)
			}()
			if _, err := Attach(cli2, AttachOptions{Name: "c", Timeout: 2 * time.Second}); !errors.Is(err, ErrVersionMismatch) {
				t.Fatalf("Attach err = %v, want ErrVersionMismatch", err)
			}
		})
	}
}

// TestAcceptConnAcceptsCurrent is the positive half of the version check: a
// current attach frame yields a PendingConn carrying the requested names.
func TestAcceptConnAcceptsCurrent(t *testing.T) {
	buf, err := encodeEnvelope(nil, &envelope{
		Type: msgAttach, Attach: &attachMsg{Name: "alice", Session: "s7"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cli, srv := net.Pipe()
	defer cli.Close()
	type res struct {
		p   *PendingConn
		err error
	}
	resCh := make(chan res, 1)
	go func() {
		p, err := AcceptConn(srv)
		resCh <- res{p, err}
	}()
	go cli.Write(buf)
	r := <-resCh
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.p.ClientName() != "alice" || r.p.SessionName() != "s7" {
		t.Fatalf("pending conn: %q %q", r.p.ClientName(), r.p.SessionName())
	}
}

// TestAttachRejectsNonProtocolServer covers the client side of the version check:
// attaching to an endpoint that does not speak the protocol fails with
// ErrVersionMismatch.
func TestAttachRejectsNonProtocolServer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		conn.Write([]byte("HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"))
		conn.Close()
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(conn, AttachOptions{Name: "c", Timeout: 2 * time.Second}); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("Attach err = %v, want ErrVersionMismatch", err)
	}
}

// TestAttachSurfacesVersionAck proves a server's version-coded rejection ack
// reaches the client as ErrVersionMismatch.
func TestAttachSurfacesVersionAck(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		c := newCodec(conn)
		c.read() // consume the attach
		c.write(&envelope{Type: msgAck, Ack: &ackMsg{Code: codeVersion, Err: "unsupported version"}}, time.Second)
		conn.Close()
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Attach(conn, AttachOptions{Name: "c", Timeout: 2 * time.Second}); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("Attach err = %v, want ErrVersionMismatch", err)
	}
}

// TestRequestTimeoutIsDeadlineExceeded: a timed floor call whose ack never
// arrives ends with the context package's deadline error, the same error
// the context-bounded calls return.
func TestRequestTimeoutIsDeadlineExceeded(t *testing.T) {
	cli, srv := net.Pipe()
	defer srv.Close()
	go func() {
		c := newCodec(srv)
		if _, err := c.read(); err != nil { // the attach
			return
		}
		c.write(&envelope{Type: msgWelcome, Welcome: &welcomeMsg{SessionName: "s", ClientName: "c"}}, time.Second)
		for { // read requests, never ack them
			if _, err := c.read(); err != nil {
				return
			}
		}
	}()
	c, err := Attach(cli, AttachOptions{Name: "c", Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.ReleaseMaster(20 * time.Millisecond); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ReleaseMaster err = %v, want context.DeadlineExceeded", err)
	}
}

func TestAttachContextCancellation(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		// Accept and say nothing: the handshake can only end by ctx.
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		time.Sleep(3 * time.Second)
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = AttachContext(ctx, conn, AttachOptions{Name: "c", Timeout: 10 * time.Second})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancellation did not interrupt the handshake")
	}
}

func TestTypedParamsEndToEnd(t *testing.T) {
	s, dial := testSession(t, SessionConfig{})
	st := s.Steered()
	var gotInt int64
	var gotBool bool
	var gotStr, gotChoice string
	if err := st.RegisterInt("iters", 10, 1, 100, "solver iterations", func(v int64) { gotInt = v }); err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterBool("verbose", false, "", func(v bool) { gotBool = v }); err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterString("label", "run-a", "", func(v string) { gotStr = v }); err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterChoice("scheme", []string{"fast", "accurate"}, "fast", "", func(v string) { gotChoice = v }); err != nil {
		t.Fatal(err)
	}

	m := dial(AttachOptions{Name: "m"})
	// The welcome carries types, kinds, and choices.
	p, ok := m.Param("iters")
	if !ok || p.Type != IntParam || p.Value != IntValue(10) || p.Min != 1 || p.Max != 100 {
		t.Fatalf("iters param: %+v", p)
	}
	p, _ = m.Param("scheme")
	if p.Type != ChoiceParam || len(p.Choices) != 2 || p.Value != StringValue("fast") {
		t.Fatalf("scheme param: %+v", p)
	}

	if err := m.SetValueContext(testCtx(t), "iters", IntValue(42)); err != nil {
		t.Fatal(err)
	}
	if err := m.SetValueContext(testCtx(t), "verbose", BoolValue(true)); err != nil {
		t.Fatal(err)
	}
	if err := m.SetValueContext(testCtx(t), "label", StringValue("run-b")); err != nil {
		t.Fatal(err)
	}
	// A choice accepts its index too: receiver-side conversion.
	if err := m.SetValueContext(testCtx(t), "scheme", IntValue(1)); err != nil {
		t.Fatal(err)
	}
	st.Poll()
	if gotInt != 42 || !gotBool || gotStr != "run-b" || gotChoice != "accurate" {
		t.Fatalf("applied: %d %v %q %q", gotInt, gotBool, gotStr, gotChoice)
	}
	// Updates reach the client with typed values.
	waitFor(t, "typed updates", func() bool {
		a, _ := m.Param("scheme")
		b, _ := m.Param("verbose")
		return a.Value == StringValue("accurate") && b.Value == BoolValue(true)
	})

	// An integer parameter accepts an integral float but rejects a
	// fractional one (no silent truncation).
	if err := m.SetParamContext(testCtx(t), "iters", 7); err != nil {
		t.Fatal(err)
	}
	if err := m.SetParamContext(testCtx(t), "iters", 7.5); !errors.Is(err, ErrBadValue) {
		t.Fatalf("fractional int err = %v", err)
	}
}

func TestTypedErrors(t *testing.T) {
	s, dial := testSession(t, SessionConfig{})
	st := s.Steered()
	st.RegisterFloat("g", 0, 0, 10, "", func(float64) {})
	m := dial(AttachOptions{Name: "m"})
	o := dial(AttachOptions{Name: "o"})

	if err := o.SetParamContext(testCtx(t), "g", 1); !errors.Is(err, ErrNotMaster) {
		t.Fatalf("observer steer err = %v, want ErrNotMaster", err)
	}
	if err := m.SetParamContext(testCtx(t), "nosuch", 1); !errors.Is(err, ErrUnknownParam) {
		t.Fatalf("unknown param err = %v, want ErrUnknownParam", err)
	}
	if err := m.SetParamContext(testCtx(t), "g", 11); !errors.Is(err, ErrBadValue) {
		t.Fatalf("out-of-range err = %v, want ErrBadValue", err)
	}
	if err := m.SetValueContext(testCtx(t), "g", StringValue("warp")); !errors.Is(err, ErrBadValue) {
		t.Fatalf("kind clash err = %v, want ErrBadValue", err)
	}
}

func TestBatchSetParamsAtomic(t *testing.T) {
	s, dial := testSession(t, SessionConfig{})
	st := s.Steered()
	var g float64
	var n int64
	st.RegisterFloat("g", 0, 0, 10, "", func(v float64) { g = v })
	st.RegisterInt("n", 0, 0, 100, "", func(v int64) { n = v })
	m := dial(AttachOptions{Name: "m"})

	// One envelope, one ack, both applied at the next poll.
	if err := m.SetParamsContext(testCtx(t), []ParamSet{
		{Name: "g", Value: FloatValue(2.5)},
		{Name: "n", Value: IntValue(5)},
	}); err != nil {
		t.Fatal(err)
	}
	st.Poll()
	if g != 2.5 || n != 5 {
		t.Fatalf("batch applied g=%v n=%d", g, n)
	}
	if got := s.Stats().SteersApplied; got != 2 {
		t.Fatalf("SteersApplied = %d, want 2", got)
	}

	// A batch with one bad assignment is rejected whole: nothing applies.
	err := m.SetParamsContext(testCtx(t), []ParamSet{
		{Name: "g", Value: FloatValue(9)},
		{Name: "n", Value: IntValue(1000)},
	})
	if !errors.Is(err, ErrBadValue) {
		t.Fatalf("bad batch err = %v", err)
	}
	st.Poll()
	if g != 2.5 || n != 5 {
		t.Fatalf("rejected batch leaked: g=%v n=%d", g, n)
	}
}

func TestChoiceRegistrationValidation(t *testing.T) {
	s := NewSession(SessionConfig{})
	defer s.Close()
	st := s.Steered()
	if err := st.RegisterChoice("c", nil, "", "", func(string) {}); err == nil {
		t.Fatal("empty choice list accepted")
	}
	if err := st.RegisterChoice("c", []string{"a", "b"}, "z", "", func(string) {}); err == nil {
		t.Fatal("initial value outside choices accepted")
	}
	if err := st.RegisterChoice("c", []string{"a", "b"}, "a", "", func(string) {}); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeOnceSharesBuffer pins the tentpole property: one broadcast to N
// clients performs exactly one serialization, and every queue slot holds a
// reference to the same pooled buffer.
func TestEncodeOnceSharesBuffer(t *testing.T) {
	// No Close: the session never serves a listener, the fake clients'
	// codecs write to nowhere, and the inline writer starts no goroutines.
	s := NewSession(SessionConfig{SampleQueue: 4, Writer: &inlineWriter{batch: 4}})
	s.mu.Lock()
	for i := 0; i < 3; i++ {
		if _, err := s.admitLocked(&attachMsg{Name: string(rune('a' + i))}, newCodec(discardConn{})); err != nil {
			t.Fatal(err)
		}
	}
	s.rebuildClientsLocked()
	s.mu.Unlock()
	sample := NewSample(1)
	sample.Channels["x"] = Scalar(1)
	s.broadcastSample(sample)

	var frames []*FrameBuf
	for _, cc := range s.clients {
		got := cc.out.drainInto(nil, 0)
		if len(got) != 1 {
			t.Fatalf("client queue holds %d frames after broadcast, want 1", len(got))
		}
		frames = append(frames, got[0])
	}
	for _, fb := range frames[1:] {
		if fb != frames[0] {
			t.Fatal("broadcast did not share one encoded buffer across clients")
		}
	}
	// Each of the three queue slots held one reference, now owned here.
	if got := frames[0].Refs(); got != 3 {
		t.Fatalf("shared frame refcount = %d, want 3 (one per queue slot)", got)
	}
	releaseFrames(frames)
}
