// Package pprofsrv serves net/http/pprof on a listener of its own, kept
// off the serving address so profiling endpoints are never reachable
// through the public port or the router. cmd/ecserve and cmd/ecrouter
// start it for -debug-addr.
//
// It is a package apart from obs because importing net/http/pprof
// registers its handlers on http.DefaultServeMux: obs is linked into
// every program that embeds the service, and none of them should gain
// those routes by accident.
package pprofsrv

import (
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Serve listens on addr and serves /debug/pprof/ there until the
// returned stop closes the listener.
func Serve(addr string, logger *log.Logger) (stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go srv.Serve(ln) //nolint:errcheck // closed via stop
	logger.Printf("pprof profiling on http://%s/debug/pprof/", ln.Addr())
	return func() { srv.Close() }, nil
}
