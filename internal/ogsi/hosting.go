// Package ogsi implements a lightweight OGSA/OGSI hosting environment in the
// spirit of the paper's OGSI-Lite (section 2.3): "RealityGrid has therefore
// developed a lightweight OGSA hosting environment ... [that] can thus run
// on almost any platform". Where the original used Perl and SOAP, this one
// uses net/http and JSON — the OGSI semantics it preserves are the ones the
// steering architecture of Figure 2 depends on:
//
//   - factories that create service instances with unique Grid Service
//     Handles (GSHs),
//   - per-instance service data elements (SDEs) queryable by name,
//   - soft-state lifetime management with termination times and a reaper,
//   - a registry service where steering services publish themselves and
//     clients "contact a registry which [has] details of the steering
//     services", choose services and bind to them.
package ogsi

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Service is one grid service instance hosted in the environment.
type Service interface {
	// ServeOp handles a named operation with JSON-encoded arguments.
	ServeOp(op string, args json.RawMessage) (any, error)
	// ServiceData returns the instance's service data elements.
	ServiceData() map[string]any
	// Destroy releases the instance's resources.
	Destroy()
}

// Factory creates service instances; args come from the create request.
type Factory func(args json.RawMessage) (Service, error)

// instance tracks one hosted service.
type instance struct {
	svc Service

	mu          sync.Mutex
	termination time.Time // zero = immortal
}

// Hosting is the container: it multiplexes factories and instances onto an
// http.Handler.
type Hosting struct {
	// BaseURL is prepended to GSHs handed out by factories (scheme://host);
	// set it when the listener address is known.
	BaseURL string

	mu        sync.Mutex
	factories map[string]Factory
	instances map[string]*instance
	nextID    int

	reaperStop chan struct{}
	reaperOnce sync.Once
}

// NewHosting returns an empty hosting environment and starts its lifetime
// reaper.
func NewHosting() *Hosting {
	h := &Hosting{
		factories:  make(map[string]Factory),
		instances:  make(map[string]*instance),
		reaperStop: make(chan struct{}),
	}
	go h.reap()
	return h
}

// RegisterFactory installs a factory under a service type name.
func (h *Hosting) RegisterFactory(name string, f Factory) {
	h.mu.Lock()
	h.factories[name] = f
	h.mu.Unlock()
}

func (h *Hosting) create(factory string, args json.RawMessage) (string, error) {
	h.mu.Lock()
	f, ok := h.factories[factory]
	h.mu.Unlock()
	if !ok {
		return "", fmt.Errorf("ogsi: no factory %q", factory)
	}
	svc, err := f(args)
	if err != nil {
		return "", err
	}
	h.mu.Lock()
	h.nextID++
	gsh := fmt.Sprintf("/services/%s/%d", factory, h.nextID)
	h.instances[gsh] = &instance{svc: svc}
	h.mu.Unlock()
	return gsh, nil
}

// lookup returns the instance for a GSH path.
func (h *Hosting) lookup(gsh string) (*instance, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	inst, ok := h.instances[gsh]
	if !ok {
		return nil, fmt.Errorf("ogsi: no service %q", gsh)
	}
	return inst, nil
}

// Get returns the hosted Service behind a GSH, for in-process use.
func (h *Hosting) Get(gsh string) (Service, error) {
	inst, err := h.lookup(strings.TrimPrefix(gsh, h.BaseURL))
	if err != nil {
		return nil, err
	}
	return inst.svc, nil
}

// Destroy removes an instance explicitly.
func (h *Hosting) Destroy(gsh string) error {
	h.mu.Lock()
	inst, ok := h.instances[gsh]
	if ok {
		delete(h.instances, gsh)
	}
	h.mu.Unlock()
	if !ok {
		return fmt.Errorf("ogsi: no service %q", gsh)
	}
	inst.svc.Destroy()
	return nil
}

// Instances returns the live GSHs.
func (h *Hosting) Instances() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.instances))
	for gsh := range h.instances {
		out = append(out, gsh)
	}
	return out
}

// reap destroys instances whose termination time has passed: OGSI soft-state
// lifetime management.
func (h *Hosting) reap() {
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-h.reaperStop:
			return
		case now := <-t.C:
			var doomed []*instance
			h.mu.Lock()
			for gsh, inst := range h.instances {
				inst.mu.Lock()
				expired := !inst.termination.IsZero() && now.After(inst.termination)
				inst.mu.Unlock()
				if expired {
					doomed = append(doomed, inst)
					delete(h.instances, gsh)
				}
			}
			h.mu.Unlock()
			for _, inst := range doomed {
				inst.svc.Destroy()
			}
		}
	}
}

// Close stops the reaper and destroys all instances.
func (h *Hosting) Close() {
	h.reaperOnce.Do(func() { close(h.reaperStop) })
	h.mu.Lock()
	insts := make([]*instance, 0, len(h.instances))
	for _, inst := range h.instances {
		insts = append(insts, inst)
	}
	h.instances = make(map[string]*instance)
	h.mu.Unlock()
	for _, inst := range insts {
		inst.svc.Destroy()
	}
}

// maxBodyBytes bounds every request body; a longer one is refused before
// any of it reaches a factory or a service.
const maxBodyBytes = 1 << 20

// opRequest is the JSON body of a service operation call.
type opRequest struct {
	Op   string          `json:"op"`
	Args json.RawMessage `json:"args,omitempty"`
}

// opResponse is the JSON reply of every endpoint.
type opResponse struct {
	OK     bool            `json:"ok"`
	Err    string          `json:"err,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// writeJSON encodes a result or error.
func writeJSON(w http.ResponseWriter, status int, resp *opResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(resp)
}

func ok(w http.ResponseWriter, result any) {
	raw, err := json.Marshal(result)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, &opResponse{Err: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, &opResponse{OK: true, Result: raw})
}

func fail(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, &opResponse{Err: err.Error()})
}

// ServeHTTP implements the container's HTTP surface:
//
//	POST /factories/<name>          {args}        -> {"gsh": ...}
//	POST /services/<name>/<id>      {op, args}    -> operation result
//	GET  /services/<name>/<id>?sde=<name>         -> service data element
//	GET  /services/<name>/<id>                    -> all service data
//	DELETE /services/<name>/<id>                  -> destroy
//	POST /services/<name>/<id>/lifetime {seconds} -> set termination time
func (h *Hosting) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	path := r.URL.Path
	switch {
	case strings.HasPrefix(path, "/factories/"):
		if r.Method != http.MethodPost {
			fail(w, http.StatusMethodNotAllowed, fmt.Errorf("ogsi: POST required"))
			return
		}
		name := strings.TrimPrefix(path, "/factories/")
		var args json.RawMessage // an empty body means no args
		if err := json.NewDecoder(r.Body).Decode(&args); err != nil && err != io.EOF {
			fail(w, http.StatusBadRequest, err)
			return
		}
		gsh, err := h.create(name, args)
		if err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		ok(w, map[string]string{"gsh": h.BaseURL + gsh})

	case strings.HasSuffix(path, "/lifetime") && strings.HasPrefix(path, "/services/"):
		gsh := strings.TrimSuffix(path, "/lifetime")
		inst, err := h.lookup(gsh)
		if err != nil {
			fail(w, http.StatusNotFound, err)
			return
		}
		var body struct {
			Seconds float64 `json:"seconds"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			fail(w, http.StatusBadRequest, err)
			return
		}
		inst.mu.Lock()
		if body.Seconds <= 0 {
			inst.termination = time.Time{}
		} else {
			inst.termination = time.Now().Add(time.Duration(body.Seconds * float64(time.Second)))
		}
		term := inst.termination
		inst.mu.Unlock()
		ok(w, map[string]any{"termination": term})

	case strings.HasPrefix(path, "/services/"):
		inst, err := h.lookup(path)
		if err != nil {
			fail(w, http.StatusNotFound, err)
			return
		}
		switch r.Method {
		case http.MethodGet:
			sde := r.URL.Query().Get("sde")
			data := inst.svc.ServiceData()
			if sde == "" {
				ok(w, data)
				return
			}
			v, found := data[sde]
			if !found {
				fail(w, http.StatusNotFound, fmt.Errorf("ogsi: no service data element %q", sde))
				return
			}
			ok(w, v)
		case http.MethodPost:
			var req opRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				fail(w, http.StatusBadRequest, err)
				return
			}
			result, err := inst.svc.ServeOp(req.Op, req.Args)
			if err != nil {
				fail(w, http.StatusBadRequest, err)
				return
			}
			ok(w, result)
		case http.MethodDelete:
			if err := h.Destroy(path); err != nil {
				fail(w, http.StatusNotFound, err)
				return
			}
			ok(w, map[string]bool{"destroyed": true})
		default:
			fail(w, http.StatusMethodNotAllowed, fmt.Errorf("ogsi: unsupported method"))
		}

	default:
		fail(w, http.StatusNotFound, fmt.Errorf("ogsi: unknown path %q", path))
	}
}
