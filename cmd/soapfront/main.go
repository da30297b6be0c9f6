// Command soapfront is the fault-tolerant, quality-aware SOAP-bin
// router: one listener speaking the framed, multiplexed TCP protocol
// (core.ServeTCP), fanning calls out across a fleet of backend servers
// with per-backend health probing, circuit breaking, quality-weighted
// least-loaded routing, and bounded failover.
//
// The routed service is described by its WSDL; backends are named
// endpoints serving that same service. WSDL carries no idempotency
// declarations, so operations that are safe to re-send after a
// transport error must be named with -idempotent (provably-refused
// calls — busy, draining — always fail over regardless).
//
// Usage:
//
//	soapfront -wsdl svc.wsdl -listen :8090 \
//	    -backends a=10.0.0.1:8082,b=10.0.0.2:8082 \
//	    -idempotent getCatering,getImage \
//	    -admin 127.0.0.1:8091 -obs 127.0.0.1:8092
//
// The admin listener exposes the operator surface: GET /wsdl (the
// fleet's current service description, active backends as ports),
// GET /backends (the live routing snapshot), and POST /join, /drain,
// /remove for membership changes. A drained backend stays registered
// but out of rotation until an explicit /join. SIGINT/SIGTERM stop the
// listener and close the router.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"soapbinq/internal/core"
	"soapbinq/internal/front"
	"soapbinq/internal/obs"
	"soapbinq/internal/wsdl"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "soapfront:", err)
		os.Exit(1)
	}
}

func run() error {
	listen := flag.String("listen", "", "address to serve the routed service on (required)")
	wsdlPath := flag.String("wsdl", "", "WSDL file describing the routed service (required)")
	backends := flag.String("backends", "", "comma-separated backends, name=host:port (required)")
	idempotent := flag.String("idempotent", "", "comma-separated operations safe to re-send after transport errors (\"*\" = all)")
	admin := flag.String("admin", "", "HTTP admin address (/wsdl, /backends, /join, /drain, /remove)")
	obsAddr := flag.String("obs", "", "observability address (/metrics, /debug/quality with the router's snapshot)")
	probeInterval := flag.Duration("probe-interval", 500*time.Millisecond, "active health-probe period")
	forwardTimeout := flag.Duration("forward-timeout", 15*time.Second, "per-forward attempt bound")
	poolConns := flag.Int("pool-conns", 4, "multiplexed connections per backend")
	maxFailover := flag.Int("max-failover", 2, "how many extra backends one call may be moved to")
	retryBudget := flag.Float64("retry-budget", 32, "failover token-bucket capacity")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "bound on an admin-requested drain")
	flag.Parse()

	if *listen == "" || *wsdlPath == "" || *backends == "" {
		flag.Usage()
		return fmt.Errorf("-listen, -wsdl and -backends are required")
	}

	doc, err := os.ReadFile(*wsdlPath)
	if err != nil {
		return err
	}
	defs, err := wsdl.Parse(doc)
	if err != nil {
		return fmt.Errorf("parse %s: %w", *wsdlPath, err)
	}
	spec, err := defs.ServiceSpec()
	if err != nil {
		return fmt.Errorf("service spec from %s: %w", *wsdlPath, err)
	}
	if err := markIdempotent(spec, *idempotent); err != nil {
		return err
	}

	f := front.New(front.Config{
		Spec:           spec,
		PoolConns:      *poolConns,
		MaxFailover:    *maxFailover,
		ForwardTimeout: *forwardTimeout,
		ProbeInterval:  *probeInterval,
		RetryBudget:    *retryBudget,
	})
	defer f.Close()
	if err := joinBackends(f, *backends); err != nil {
		return err
	}
	f.Start()

	if *obsAddr != "" {
		f.RegisterDebug()
		ln, err := obs.Serve(*obsAddr)
		if err != nil {
			return fmt.Errorf("obs: %w", err)
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "soapfront: observability at http://%s/metrics and /debug/quality\n", ln.Addr())
	}
	if *admin != "" {
		ln, err := serveAdmin(f, *admin, *drainTimeout)
		if err != nil {
			return fmt.Errorf("admin: %w", err)
		}
		defer ln.Close()
	}

	ln, err := core.ServeTCP(f, *listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "soapfront: routing %s on %s across %d backends\n",
		spec.Name, ln.Addr(), len(f.Backends()))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	fmt.Fprintf(os.Stderr, "soapfront: %s, shutting down\n", s)
	return ln.Close()
}

// markIdempotent applies the -idempotent list to the parsed spec.
func markIdempotent(spec *core.ServiceSpec, list string) error {
	if list == "" {
		return nil
	}
	if list == "*" {
		for _, op := range spec.Ops {
			op.Idempotent = true
		}
		return nil
	}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		op, ok := spec.Ops[name]
		if !ok {
			return fmt.Errorf("-idempotent: operation %q not in the WSDL", name)
		}
		op.Idempotent = true
	}
	return nil
}

// joinBackends parses name=host:port pairs and joins each.
func joinBackends(f *front.Front, list string) error {
	for _, entry := range strings.Split(list, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, addr, ok := strings.Cut(entry, "=")
		if !ok {
			// A bare address names itself.
			name, addr = entry, entry
		}
		if err := f.Join(name, addr); err != nil {
			return err
		}
	}
	if len(f.Backends()) == 0 {
		return fmt.Errorf("-backends: no backends parsed from %q", list)
	}
	return nil
}

// serveAdmin exposes the operator surface over HTTP.
func serveAdmin(f *front.Front, addr string, drainTimeout time.Duration) (interface{ Close() error }, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/wsdl", func(w http.ResponseWriter, r *http.Request) {
		doc, err := f.WSDL()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/xml; charset=utf-8")
		w.Write(doc)
	})
	mux.HandleFunc("/backends", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(f.DebugSnapshot())
	})
	mux.HandleFunc("/join", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		name, addr := r.FormValue("backend"), r.FormValue("addr")
		if err := f.Join(name, addr); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fmt.Fprintf(w, "joined %s at %s\n", name, addr)
	})
	mux.HandleFunc("/drain", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		name := r.FormValue("backend")
		ctx, cancel := context.WithTimeout(r.Context(), drainTimeout)
		defer cancel()
		if err := f.Drain(ctx, name); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fmt.Fprintf(w, "drained %s\n", name)
	})
	mux.HandleFunc("/remove", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		f.Remove(r.FormValue("backend"))
		fmt.Fprintf(w, "removed %s\n", r.FormValue("backend"))
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) // lifetime is the listener's; Close unblocks it
	fmt.Fprintf(os.Stderr, "soapfront: admin at http://%s/backends\n", ln.Addr())
	return ln, nil
}
