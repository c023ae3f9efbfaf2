package gossip

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/wire"
)

// HTTPTransport delivers gossip frames by POSTing them to a peer's
// /gossip endpoint. Peer addresses are base URLs ("http://host:port").
type HTTPTransport struct {
	Client *http.Client
}

// NewHTTPTransport returns a transport with a dedicated client; timeout 0
// defaults to 2s — gossip frames are small and loss is repaired by later
// rounds, so a slow peer should fail fast rather than wedge a sender.
func NewHTTPTransport(timeout time.Duration) *HTTPTransport {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return &HTTPTransport{Client: &http.Client{Timeout: timeout}}
}

// Send implements Transport.
func (t *HTTPTransport) Send(dst Peer, frame []byte) error {
	if dst.Addr == "" {
		return errors.New("gossip: peer has no address")
	}
	url := strings.TrimSuffix(dst.Addr, "/") + "/gossip"
	resp, err := t.Client.Post(url, "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("gossip: peer %s returned %s", dst.ID, resp.Status)
	}
	return nil
}

// Handler returns the node's HTTP surface:
//
//	POST /gossip            — one or more concatenated gossip frames
//	GET  /gossip/sum/{name} — merged cluster read (ClusterInfo JSON)
//	GET  /gossip/peers      — membership view + self + epoch (JSON)
//
// Mount it at both "/gossip" and "/gossip/" on the daemon mux.
func (n *Node) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		path := strings.TrimPrefix(r.URL.Path, "/gossip")
		switch {
		case path == "" || path == "/":
			if r.Method != http.MethodPost {
				w.Header().Set("Allow", http.MethodPost)
				http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
				return
			}
			body, err := io.ReadAll(io.LimitReader(r.Body, 4*(MaxFramePayload+wire.Overhead)))
			if err != nil {
				http.Error(w, "read: "+err.Error(), http.StatusBadRequest)
				return
			}
			if err := n.Handle(body); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		case strings.HasPrefix(path, "/sum/"):
			if r.Method != http.MethodGet {
				w.Header().Set("Allow", http.MethodGet)
				http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
				return
			}
			name := strings.TrimPrefix(path, "/sum/")
			info, err := n.ClusterRead(name)
			if err != nil && info.Err == "" {
				info.Err = err.Error()
			}
			writeJSON(w, info)
		case path == "/peers":
			if r.Method != http.MethodGet {
				w.Header().Set("Allow", http.MethodGet)
				http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
				return
			}
			st := n.Stats()
			writeJSON(w, peersReply{
				Self:   n.Self(),
				Epoch:  n.Epoch(),
				Rounds: st.Rounds,
				Peers:  n.Peers(),
			})
		default:
			http.NotFound(w, r)
		}
	})
}

type peersReply struct {
	Self   Peer   `json:"self"`
	Epoch  uint64 `json:"epoch"`
	Rounds uint64 `json:"rounds"`
	Peers  []Peer `json:"peers"`
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
