package accessgrid

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/netsim"
)

func TestCreateVenueWithDefaultStreams(t *testing.T) {
	vs := NewVenueServer()
	v, err := vs.CreateVenue("SC03 Showcase", "Phoenix show floor")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vs.CreateVenue("SC03 Showcase", "dup"); err == nil {
		t.Fatal("duplicate venue accepted")
	}
	streams := v.Streams()
	if len(streams) != 2 || streams[0].Name != "audio" || streams[1].Name != "video" {
		t.Fatalf("default streams = %v", streams)
	}
	if streams[0].Kind.String() != "audio" || streams[1].Kind.String() != "video" {
		t.Fatal("stream kinds wrong")
	}
	if got := vs.Venues(); len(got) != 1 || got[0] != "SC03 Showcase" {
		t.Fatalf("venues = %v", got)
	}
}

func TestPresence(t *testing.T) {
	vs := NewVenueServer()
	v, _ := vs.CreateVenue("venue", "")
	if _, err := v.Enter("brooke", "manchester"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Enter("brooke", "elsewhere"); err == nil {
		t.Fatal("duplicate participant accepted")
	}
	v.Enter("eickermann", "juelich")
	ps := v.Participants()
	if len(ps) != 2 || ps[0].Name != "brooke" {
		t.Fatalf("participants = %v", ps)
	}
	v.Exit("brooke")
	if len(v.Participants()) != 1 {
		t.Fatal("exit failed")
	}
	evs := v.Events()
	if len(evs) != 3 || evs[2] != "exit:brooke" {
		t.Fatalf("events = %v", evs)
	}
}

func TestMediaStreamFanOut(t *testing.T) {
	vs := NewVenueServer()
	v, _ := vs.CreateVenue("venue", "")
	video, _ := v.Stream("video")

	sender := video.Join("hlrs-cam", netsim.Loopback)
	rx1 := video.Join("phoenix", netsim.Loopback)
	rx2 := video.Join("juelich", netsim.Loopback)

	if err := sender.Send([]byte("h261-frame-1")); err != nil {
		t.Fatal(err)
	}
	for _, rx := range []*netsim.Member{rx1, rx2} {
		p, err := rx.Recv(time.Second)
		if err != nil || string(p.Payload) != "h261-frame-1" {
			t.Fatalf("%s: %v %q", rx.Name(), err, p.Payload)
		}
	}
}

func TestVenueIsolation(t *testing.T) {
	vs := NewVenueServer()
	v1, _ := vs.CreateVenue("room-1", "")
	v2, _ := vs.CreateVenue("room-2", "")
	s1, _ := v1.Stream("video")
	s2, _ := v2.Stream("video")
	tx := s1.Join("tx", netsim.Loopback)
	rx := s2.Join("rx", netsim.Loopback)
	tx.Send([]byte("leak?"))
	if _, ok := rx.TryRecv(); ok {
		t.Fatal("media leaked between venues")
	}
}

func TestNATBridge(t *testing.T) {
	vs := NewVenueServer()
	v, _ := vs.CreateVenue("venue", "")
	video, _ := v.Stream("video")
	cam := video.Join("cave-cam", netsim.Loopback)

	bridge := video.Bridge("bridge-1", netsim.Loopback)
	defer bridge.Close()
	a, b := netsim.Pipe(netsim.Loopback)
	defer b.Close()
	go bridge.Subscribe(a)
	time.Sleep(5 * time.Millisecond)

	if err := cam.Send([]byte("stereo-left")); err != nil {
		t.Fatal(err)
	}
	// The NAT'd site reads the bridged frame off its unicast conn.
	buf := make([]byte, 512)
	b.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := b.Read(buf)
	if err != nil || n == 0 {
		t.Fatalf("bridged frame not delivered: %v", err)
	}
	if !bytes.Contains(buf[:n], []byte("stereo-left")) {
		t.Fatal("payload mangled through bridge")
	}
}

func TestSharedApplications(t *testing.T) {
	vs := NewVenueServer()
	v, _ := vs.CreateVenue("venue", "")
	err := v.RegisterApp(AppDescriptor{
		Name: "building-analysis", Type: "covise-session",
		Endpoint: "covise://hlrs:31000/map-editor",
		Data:     map[string]string{"map": "carshow.net"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.RegisterApp(AppDescriptor{Name: "building-analysis", Type: "covise-session"}); err == nil {
		t.Fatal("duplicate app accepted")
	}
	if err := v.RegisterApp(AppDescriptor{Name: "x"}); err == nil {
		t.Fatal("descriptor without type accepted")
	}
	apps := v.FindApps("covise-session")
	if len(apps) != 1 || apps[0].Endpoint != "covise://hlrs:31000/map-editor" {
		t.Fatalf("apps = %v", apps)
	}
	v.UnregisterApp("building-analysis")
	if len(v.Apps()) != 0 {
		t.Fatal("unregister failed")
	}
}

func TestAdminHTTP(t *testing.T) {
	vs := NewVenueServer()
	srv := httptest.NewServer(AdminHandler(vs))
	defer srv.Close()

	post := func(path string, body any) *http.Response {
		t.Helper()
		raw, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Create a venue.
	resp := post("/venues", map[string]string{"name": "SC03", "description": "showcase"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Enter two participants and register an app.
	post("/venues/SC03/enter", map[string]string{"name": "brooke", "site": "manchester"}).Body.Close()
	post("/venues/SC03/enter", map[string]string{"name": "woessner", "site": "hlrs"}).Body.Close()
	post("/venues/SC03/apps", AppDescriptor{Name: "covise", Type: "covise-session", Endpoint: "x"}).Body.Close()

	// Read the venue state back.
	getResp, err := http.Get(srv.URL + "/venues/SC03")
	if err != nil {
		t.Fatal(err)
	}
	defer getResp.Body.Close()
	var out struct {
		OK     bool `json:"ok"`
		Result struct {
			Name         string              `json:"name"`
			Participants []map[string]string `json:"participants"`
			Streams      []map[string]string `json:"streams"`
			Apps         []AppDescriptor     `json:"apps"`
		} `json:"result"`
	}
	if err := json.NewDecoder(getResp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.OK || out.Result.Name != "SC03" {
		t.Fatalf("venue view = %+v", out)
	}
	if len(out.Result.Participants) != 2 || len(out.Result.Streams) != 2 || len(out.Result.Apps) != 1 {
		t.Fatalf("venue view = %+v", out.Result)
	}

	// Exit.
	post("/venues/SC03/exit", map[string]string{"name": "brooke"}).Body.Close()

	// Errors.
	if resp := post("/venues", map[string]string{"name": "SC03"}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate venue status = %d", resp.StatusCode)
	}
	if getResp, _ := http.Get(srv.URL + "/venues/nope"); getResp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing venue status = %d", getResp.StatusCode)
	}
}

// TestAdminBodyBound: an admin body of exactly maxBodyBytes is served; one
// byte more is refused and leaves the venue server as it was.
func TestAdminBodyBound(t *testing.T) {
	vs := NewVenueServer()
	srv := httptest.NewServer(AdminHandler(vs))
	defer srv.Close()
	post := func(path, head string, n int) int {
		t.Helper()
		// head, then a "pad" member filling the JSON object to n bytes.
		pad := bytes.Repeat([]byte("x"), n-len(head)-len(`"pad":""}`))
		body := append([]byte(head+`"pad":"`), append(pad, `"}`...)...)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := post("/venues", `{"name":"big",`, maxBodyBytes+1); got != http.StatusBadRequest {
		t.Fatalf("oversized create: status %d, want %d", got, http.StatusBadRequest)
	}
	if names := vs.Venues(); len(names) != 0 {
		t.Fatalf("oversized create made venues %v", names)
	}
	if got := post("/venues", `{"name":"SC03",`, maxBodyBytes); got != http.StatusOK {
		t.Fatalf("create at the bound: status %d", got)
	}
	if got := post("/venues/SC03/enter", `{"name":"brooke","site":"manchester",`, maxBodyBytes+1); got != http.StatusBadRequest {
		t.Fatalf("oversized enter: status %d, want %d", got, http.StatusBadRequest)
	}
	v, _ := vs.Venue("SC03")
	if ps := v.Participants(); len(ps) != 0 {
		t.Fatalf("oversized enter admitted %d participant(s)", len(ps))
	}
}
