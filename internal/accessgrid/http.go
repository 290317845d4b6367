package accessgrid

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
)

// maxBodyBytes bounds every admin request body; a longer one is refused
// before any of it reaches a venue.
const maxBodyBytes = 64 << 10

// AdminHandler exposes the venue server over HTTP for the venued daemon:
//
//	GET  /venues                   -> venue names
//	POST /venues                   {"name","description"} -> created venue
//	GET  /venues/<name>            -> venue state (participants, streams, apps)
//	POST /venues/<name>/enter      {"name","site"}
//	POST /venues/<name>/exit       {"name"}
//	POST /venues/<name>/apps       AppDescriptor JSON
func AdminHandler(vs *VenueServer) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("/venues", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			writeOK(w, vs.Venues())
		case http.MethodPost:
			var body struct{ Name, Description string }
			if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
				writeErr(w, http.StatusBadRequest, err)
				return
			}
			v, err := vs.CreateVenue(body.Name, body.Description)
			if err != nil {
				writeErr(w, http.StatusConflict, err)
				return
			}
			writeOK(w, venueView(v))
		default:
			writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("accessgrid: unsupported method"))
		}
	})

	mux.HandleFunc("/venues/", func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/venues/")
		parts := strings.SplitN(rest, "/", 2)
		v, ok := vs.Venue(parts[0])
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("accessgrid: no venue %q", parts[0]))
			return
		}
		action := ""
		if len(parts) == 2 {
			action = parts[1]
		}
		switch {
		case action == "" && r.Method == http.MethodGet:
			writeOK(w, venueView(v))
		case action == "enter" && r.Method == http.MethodPost:
			var body struct{ Name, Site string }
			if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
				writeErr(w, http.StatusBadRequest, err)
				return
			}
			if _, err := v.Enter(body.Name, body.Site); err != nil {
				writeErr(w, http.StatusConflict, err)
				return
			}
			writeOK(w, map[string]bool{"entered": true})
		case action == "exit" && r.Method == http.MethodPost:
			var body struct{ Name string }
			if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
				writeErr(w, http.StatusBadRequest, err)
				return
			}
			v.Exit(body.Name)
			writeOK(w, map[string]bool{"exited": true})
		case action == "apps" && r.Method == http.MethodPost:
			var app AppDescriptor
			if err := json.NewDecoder(r.Body).Decode(&app); err != nil {
				writeErr(w, http.StatusBadRequest, err)
				return
			}
			if err := v.RegisterApp(app); err != nil {
				writeErr(w, http.StatusConflict, err)
				return
			}
			writeOK(w, map[string]bool{"registered": true})
		default:
			writeErr(w, http.StatusNotFound, fmt.Errorf("accessgrid: unknown action %q", action))
		}
	})
	return http.MaxBytesHandler(mux, maxBodyBytes)
}

// venueView is the JSON projection of a venue.
func venueView(v *Venue) map[string]any {
	streams := make([]map[string]string, 0)
	for _, s := range v.Streams() {
		streams = append(streams, map[string]string{
			"name": s.Name, "kind": s.Kind.String(), "addr": s.Addr,
		})
	}
	participants := make([]map[string]string, 0)
	for _, p := range v.Participants() {
		participants = append(participants, map[string]string{"name": p.Name, "site": p.Site})
	}
	return map[string]any{
		"name":         v.Name,
		"description":  v.Description,
		"streams":      streams,
		"participants": participants,
		"apps":         v.Apps(),
	}
}

func writeOK(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"ok": true, "result": v})
}

func writeErr(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{"ok": false, "err": err.Error()})
}
