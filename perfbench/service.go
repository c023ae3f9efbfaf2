package main

import (
	"net/http"
	"sync/atomic"

	"repro/internal/server"
	"repro/internal/telemetry"
)

// service is one summation server assembled the way hpsumd assembles it:
// the /v1/ API and the telemetry exporter on one loopback listener, with
// telemetry recording on. The benchmark's span wrapper sits in front of
// the API; it passes requests straight through while rec is empty.
type service struct {
	srv  *server.Server
	lis  *telemetry.Server
	base string
	rec  atomic.Pointer[recorder]
}

// startService serves srv; mount adds further routes (gossip) to the mux.
func startService(srv *server.Server, mount func(mux *http.ServeMux, rec *atomic.Pointer[recorder])) (*service, error) {
	s := &service{srv: srv}
	mux := http.NewServeMux()
	mux.Handle("/v1/", spanHandler(srv.Handler(), &s.rec))
	if mount != nil {
		mount(mux, &s.rec)
	}
	mux.Handle("/", telemetry.Handler())
	lis, err := telemetry.ServeHandler("127.0.0.1:0", mux)
	if err != nil {
		srv.Close()
		return nil, err
	}
	s.lis = lis
	s.base = "http://" + lis.Addr()
	return s, nil
}

// close stops the listener before the server, as hpsumd does.
func (s *service) close() {
	_ = s.lis.Close() // shutdown errors after a finished run change nothing
	s.srv.Close()
}
