package ogsi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// testHosting starts a hosting environment on an HTTP test server.
func testHosting(t *testing.T) (*Hosting, string, *Client) {
	t.Helper()
	h := NewHosting()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	t.Cleanup(h.Close)
	h.BaseURL = srv.URL
	return h, srv.URL, &Client{}
}

func TestFactoryCreateAndServiceData(t *testing.T) {
	h, url, c := testHosting(t)
	h.RegisterFactory("registry", RegistryFactory)

	gsh, err := c.Create(url, "registry", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(gsh, url+"/services/registry/") {
		t.Fatalf("gsh = %q", gsh)
	}
	var typ string
	if err := c.ServiceData(gsh, "serviceType", &typ); err != nil {
		t.Fatal(err)
	}
	if typ != "Registry" {
		t.Fatalf("serviceType = %q", typ)
	}
	var all map[string]any
	if err := c.ServiceData(gsh, "", &all); err != nil {
		t.Fatal(err)
	}
	if all["entryCount"].(float64) != 0 {
		t.Fatalf("entryCount = %v", all["entryCount"])
	}
}

func TestUnknownFactoryAndService(t *testing.T) {
	_, url, c := testHosting(t)
	if _, err := c.Create(url, "ghost", nil); err == nil {
		t.Fatal("unknown factory accepted")
	}
	if err := c.Call(url+"/services/ghost/1", "op", nil, nil); err == nil {
		t.Fatal("unknown service accepted")
	}
	var out any
	if err := c.ServiceData(url+"/services/ghost/1", "", &out); err == nil {
		t.Fatal("unknown service data served")
	}
}

func TestDestroyService(t *testing.T) {
	h, url, c := testHosting(t)
	h.RegisterFactory("registry", RegistryFactory)
	gsh, _ := c.Create(url, "registry", nil)
	if err := c.Destroy(gsh); err != nil {
		t.Fatal(err)
	}
	if err := c.Call(gsh, "find", nil, nil); err == nil {
		t.Fatal("destroyed service still answering")
	}
	if n := len(h.Instances()); n != 0 {
		t.Fatalf("instances = %d", n)
	}
}

func TestLifetimeReaper(t *testing.T) {
	h, url, c := testHosting(t)
	h.RegisterFactory("registry", RegistryFactory)
	gsh, _ := c.Create(url, "registry", nil)
	if err := c.SetLifetime(gsh, 0.05); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(h.Instances()) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("expired instance never reaped")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Immortal services survive.
	gsh2, _ := c.Create(url, "registry", nil)
	if err := c.SetLifetime(gsh2, 0.05); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLifetime(gsh2, 0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond)
	if len(h.Instances()) != 1 {
		t.Fatal("immortal instance reaped")
	}
}

func TestRegistryPublishFind(t *testing.T) {
	h, url, c := testHosting(t)
	h.RegisterFactory("registry", RegistryFactory)
	reg, _ := c.Create(url, "registry", nil)

	if err := c.Register(reg, Entry{
		GSH: "http://x/services/steer/1", Type: "SteeringService",
		Keywords: []string{"lb3d", "miscibility"},
	}, 60); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(reg, Entry{
		GSH: "http://x/services/viz/1", Type: "VizService",
		Keywords: []string{"lb3d"},
	}, 60); err != nil {
		t.Fatal(err)
	}

	all, err := c.Find(reg, "", "")
	if err != nil || len(all) != 2 {
		t.Fatalf("find all = %v, %v", all, err)
	}
	steer, _ := c.Find(reg, "SteeringService", "")
	if len(steer) != 1 || steer[0].GSH != "http://x/services/steer/1" {
		t.Fatalf("find by type = %v", steer)
	}
	byKw, _ := c.Find(reg, "", "miscib")
	if len(byKw) != 1 {
		t.Fatalf("find by keyword = %v", byKw)
	}
	none, _ := c.Find(reg, "Nothing", "")
	if len(none) != 0 {
		t.Fatalf("find nothing = %v", none)
	}
}

func TestRegistrySoftState(t *testing.T) {
	r := NewRegistry()
	_, err := r.ServeOp("register", json.RawMessage(`{"gsh":"g","type":"T","ttl_seconds":0.03}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Find("", ""); len(got) != 1 {
		t.Fatalf("fresh entry missing: %v", got)
	}
	time.Sleep(50 * time.Millisecond)
	if got := r.Find("", ""); len(got) != 0 {
		t.Fatalf("expired entry survived: %v", got)
	}
}

func TestRegistryUnregisterAndValidation(t *testing.T) {
	r := NewRegistry()
	if _, err := r.ServeOp("register", json.RawMessage(`{"gsh":"","type":"T"}`)); err == nil {
		t.Fatal("empty gsh accepted")
	}
	r.ServeOp("register", json.RawMessage(`{"gsh":"g","type":"T"}`))
	out, err := r.ServeOp("unregister", json.RawMessage(`{"gsh":"g"}`))
	if err != nil || out.(map[string]bool)["removed"] != true {
		t.Fatalf("unregister = %v, %v", out, err)
	}
	if _, err := r.ServeOp("nosuch", nil); err == nil {
		t.Fatal("unknown op accepted")
	}
}

// steeringFixture stands up a session + hosted steering/viz services.
func steeringFixture(t *testing.T) (*core.Session, *core.Steered, string, string, *Client) {
	t.Helper()
	session := core.NewSession(core.SessionConfig{Name: "lb3d-run", AppName: "lb3d"})
	t.Cleanup(session.Close)
	st := session.Steered()
	if err := st.RegisterFloat("coupling", 1.0, 0, 10, "miscibility", func(float64) {}); err != nil {
		t.Fatal(err)
	}

	h, url, c := testHosting(t)
	h.RegisterFactory("steer", SteeringFactory(session))
	h.RegisterFactory("viz", VizFactory(session))
	steerGSH, err := c.Create(url, "steer", nil)
	if err != nil {
		t.Fatal(err)
	}
	vizGSH, err := c.Create(url, "viz", nil)
	if err != nil {
		t.Fatal(err)
	}
	return session, st, steerGSH, vizGSH, c
}

func TestSteeringServiceParamsAndSteer(t *testing.T) {
	_, st, steerGSH, _, c := steeringFixture(t)

	var params []core.Param
	if err := c.Call(steerGSH, "params", nil, &params); err != nil {
		t.Fatal(err)
	}
	if len(params) != 1 || params[0].Name != "coupling" {
		t.Fatalf("params = %v", params)
	}

	if err := c.Call(steerGSH, "steer", map[string]any{"name": "coupling", "value": 4.5}, nil); err != nil {
		t.Fatal(err)
	}
	if st.Poll() != core.ControlContinue {
		t.Fatal("poll verdict wrong")
	}
	c.Call(steerGSH, "params", nil, &params)
	if params[0].Value != core.FloatValue(4.5) {
		t.Fatalf("steer not applied: %v", params)
	}

	// Validation propagates over HTTP.
	if err := c.Call(steerGSH, "steer", map[string]any{"name": "coupling", "value": 99}, nil); err == nil {
		t.Fatal("out-of-bounds steer accepted")
	}
	if err := c.Call(steerGSH, "steer", map[string]any{"name": "ghost", "value": 1}, nil); err == nil {
		t.Fatal("unknown param accepted")
	}
}

func TestSteeringServiceCommands(t *testing.T) {
	_, st, steerGSH, _, c := steeringFixture(t)
	if err := c.Call(steerGSH, "command", map[string]string{"command": "pause"}, nil); err != nil {
		t.Fatal(err)
	}
	if st.Poll() != core.ControlPaused {
		t.Fatal("pause not applied")
	}
	c.Call(steerGSH, "command", map[string]string{"command": "resume"}, nil)
	if st.Poll() != core.ControlContinue {
		t.Fatal("resume not applied")
	}
	c.Call(steerGSH, "command", map[string]string{"command": "stop"}, nil)
	if st.Poll() != core.ControlStop {
		t.Fatal("stop not applied")
	}
	if err := c.Call(steerGSH, "command", map[string]string{"command": "explode"}, nil); err == nil {
		t.Fatal("unknown command accepted")
	}
}

func TestSteeringServiceSample(t *testing.T) {
	_, st, steerGSH, _, c := steeringFixture(t)
	var sv sampleView
	if err := c.Call(steerGSH, "sample", nil, &sv); err != nil {
		t.Fatal(err)
	}
	if sv.Step != -1 {
		t.Fatalf("pre-emission step = %d", sv.Step)
	}
	sample := core.NewSample(7)
	sample.Channels["segregation"] = core.Scalar(0.42)
	sample.Channels["phi"] = core.Channel{Dims: [3]int{4, 4, 4}, Data: make([]float64, 64)}
	st.Emit(sample)
	if err := c.Call(steerGSH, "sample", nil, &sv); err != nil {
		t.Fatal(err)
	}
	if sv.Step != 7 || sv.Scalars["segregation"] != 0.42 {
		t.Fatalf("sample = %+v", sv)
	}
	if sv.Arrays["phi"] != [3]int{4, 4, 4} {
		t.Fatalf("array summary = %+v", sv.Arrays)
	}
}

func TestVizServiceViewRoundTrip(t *testing.T) {
	_, _, _, vizGSH, c := steeringFixture(t)
	var v core.ViewState
	if err := c.Call(vizGSH, "view", nil, &v); err != nil {
		t.Fatal(err)
	}
	v.Eye = [3]float64{9, 9, 9}
	v.VizParams = map[string]float64{"iso": 0.5}
	var applied core.ViewState
	if err := c.Call(vizGSH, "setview", v, &applied); err != nil {
		t.Fatal(err)
	}
	if applied.Seq == 0 || applied.Eye != [3]float64{9, 9, 9} {
		t.Fatalf("applied = %+v", applied)
	}
	var again core.ViewState
	c.Call(vizGSH, "view", nil, &again)
	if again.Eye != [3]float64{9, 9, 9} || again.VizParams["iso"] != 0.5 {
		t.Fatalf("view = %+v", again)
	}
}

func TestServiceDataOfSteeringService(t *testing.T) {
	_, _, steerGSH, _, c := steeringFixture(t)
	var session string
	if err := c.ServiceData(steerGSH, "session", &session); err != nil {
		t.Fatal(err)
	}
	if session != "lb3d-run" {
		t.Fatalf("session SDE = %q", session)
	}
	var missing any
	if err := c.ServiceData(steerGSH, "nonexistent", &missing); err == nil {
		t.Fatal("missing SDE served")
	}
}

func TestFullFigure2Flow(t *testing.T) {
	// The complete Figure 2 architecture: a client contacts the registry,
	// finds the steering services, binds, and steers.
	session := core.NewSession(core.SessionConfig{Name: "run"})
	defer session.Close()
	st := session.Steered()
	st.RegisterFloat("g", 0, 0, 10, "", func(float64) {})

	h, url, c := testHosting(t)
	h.RegisterFactory("registry", RegistryFactory)
	h.RegisterFactory("steer", SteeringFactory(session))
	h.RegisterFactory("viz", VizFactory(session))

	reg, _ := c.Create(url, "registry", nil)
	steerGSH, _ := c.Create(url, "steer", nil)
	vizGSH, _ := c.Create(url, "viz", nil)
	c.Register(reg, Entry{GSH: steerGSH, Type: "SteeringService", Keywords: []string{"run"}}, 60)
	c.Register(reg, Entry{GSH: vizGSH, Type: "VizService", Keywords: []string{"run"}}, 60)

	// The client knows only the registry.
	found, err := c.Find(reg, "SteeringService", "")
	if err != nil || len(found) != 1 {
		t.Fatalf("discovery failed: %v %v", found, err)
	}
	if err := c.Call(found[0].GSH, "steer", map[string]any{"name": "g", "value": 3}, nil); err != nil {
		t.Fatal(err)
	}
	st.Poll()
	var params []core.Param
	c.Call(found[0].GSH, "params", nil, &params)
	if params[0].Value != core.FloatValue(3) {
		t.Fatalf("steer through discovered service failed: %v", params)
	}
}

// postBody posts raw bytes and returns the status code.
func postBody(t *testing.T, url string, body []byte) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestFactoryRejectsMalformedArgs: a factory body that is not JSON is
// refused and creates nothing; an empty body still means "no args".
func TestFactoryRejectsMalformedArgs(t *testing.T) {
	h, url, _ := testHosting(t)
	h.RegisterFactory("registry", RegistryFactory)
	if got := postBody(t, url+"/factories/registry", []byte(`{"ttl":`)); got != http.StatusBadRequest {
		t.Fatalf("malformed args: status %d, want %d", got, http.StatusBadRequest)
	}
	if n := len(h.Instances()); n != 0 {
		t.Fatalf("malformed args created %d instance(s)", n)
	}
	if got := postBody(t, url+"/factories/registry", nil); got != http.StatusOK {
		t.Fatalf("empty body: status %d, want %d", got, http.StatusOK)
	}
}

// TestRequestBodyBound: a body of exactly maxBodyBytes is served on each
// JSON endpoint; one byte more is refused and leaves the hosting
// environment and the service as they were.
func TestRequestBodyBound(t *testing.T) {
	h, url, c := testHosting(t)
	h.RegisterFactory("registry", RegistryFactory)
	// padded is head, then a "pad" member filling the JSON object to n bytes.
	padded := func(head string, n int) []byte {
		pad := bytes.Repeat([]byte("x"), n-len(head)-len(`"pad":""}`))
		return append([]byte(head+`"pad":"`), append(pad, `"}`...)...)
	}

	if got := postBody(t, url+"/factories/registry", padded("{", maxBodyBytes+1)); got != http.StatusBadRequest {
		t.Fatalf("oversized create: status %d, want %d", got, http.StatusBadRequest)
	}
	if n := len(h.Instances()); n != 0 {
		t.Fatalf("oversized create made %d instance(s)", n)
	}
	if got := postBody(t, url+"/factories/registry", padded("{", maxBodyBytes)); got != http.StatusOK {
		t.Fatalf("create at the bound: status %d", got)
	}
	gsh := url + h.Instances()[0]

	register := `{"op":"register","args":{"gsh":"x","type":"Steering"},`
	if got := postBody(t, gsh, padded(register, maxBodyBytes+1)); got != http.StatusBadRequest {
		t.Fatalf("oversized op: status %d, want %d", got, http.StatusBadRequest)
	}
	var entries int
	if err := c.ServiceData(gsh, "entryCount", &entries); err != nil || entries != 0 {
		t.Fatalf("after the oversized op: entryCount %d, %v", entries, err)
	}
	if got := postBody(t, gsh, padded(register, maxBodyBytes)); got != http.StatusOK {
		t.Fatalf("op at the bound: status %d", got)
	}

	if got := postBody(t, gsh+"/lifetime", padded(`{"seconds":1,`, maxBodyBytes+1)); got != http.StatusBadRequest {
		t.Fatalf("oversized lifetime: status %d, want %d", got, http.StatusBadRequest)
	}
	inst, err := h.lookup(h.Instances()[0])
	if err != nil {
		t.Fatal(err)
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if !inst.termination.IsZero() {
		t.Fatalf("oversized lifetime set termination %v", inst.termination)
	}
}
