// Package harness stands up the system under test and drives it over HTTP.
// It is shared by the gating runner (benchmark/) and the per-layer pass
// (benchmark/layers/), and obeys the same stable-surface rule as
// benchmark/workload: of multirag/internal it imports only serve.
package harness

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"multirag"
	"multirag/internal/serve"
)

// Replicas and Clients are fixed: the stack is what
// `multirag serve -data-dir D -replicas 2` stands up, and the load generator
// uses one client goroutine and one keep-alive connection per vCPU of the
// 2-vCPU box the bounds were measured on.
const (
	Replicas = 2
	Clients  = 2
)

// Stack is one running deployment: a durable System in Dir, two WAL-fed read
// replicas, the serve front door with every default, and a real loopback TCP
// listener. GOMAXPROCS is never touched.
type Stack struct {
	Dir      string
	Sys      *multirag.System
	Set      *multirag.ReplicaSet
	Srv      *serve.Server
	URL      string
	Client   *http.Client
	Recovery multirag.RecoveryInfo

	hs   *http.Server
	done chan error
}

// Up opens (or recovers) the durable system in dir, bulk-loads files with one
// IngestFiles call when any are given, attaches the replicas and starts
// listening.
func Up(dir string, files []multirag.File) (*Stack, error) {
	sys, info, err := multirag.OpenDurable(dir, multirag.Config{Seed: 1})
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", dir, err)
	}
	st := &Stack{Dir: dir, Sys: sys, Recovery: info}
	if len(files) > 0 {
		if err := sys.IngestFiles(files...); err != nil {
			_ = sys.Close()
			return nil, fmt.Errorf("bulk ingest: %w", err)
		}
	}
	if st.Set, err = multirag.NewReplicaSet(sys, multirag.ReplicaSetConfig{Replicas: Replicas}); err != nil {
		_ = sys.Close()
		return nil, fmt.Errorf("attach replicas: %w", err)
	}
	if st.Srv, err = serve.New(serve.Config{System: sys, Replicas: st.Set}); err != nil {
		st.Set.Close()
		_ = sys.Close()
		return nil, fmt.Errorf("serve: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Srv.Close()
		st.Set.Close()
		_ = sys.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	st.URL = "http://" + ln.Addr().String()
	st.hs = &http.Server{Handler: st.Srv.Handler()}
	st.done = make(chan error, 1)
	go func() { st.done <- st.hs.Serve(ln) }()
	st.Client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     Clients,
		MaxIdleConnsPerHost: Clients,
	}}
	return st, nil
}

// Down is the graceful shutdown of `multirag serve`: drain, stop the
// listener, stop the executors, detach the replicas, then close the system
// (final checkpoint). When it returns no goroutine or listener of the stack
// is left.
func (st *Stack) Down() error {
	st.Client.CloseIdleConnections()
	st.Srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := st.hs.Shutdown(ctx)
	if serveErr := <-st.done; !errors.Is(serveErr, http.ErrServerClosed) {
		err = errors.Join(err, serveErr)
	}
	st.Srv.Close()
	st.Set.Close()
	return errors.Join(err, st.Sys.Close())
}

// Settle waits until every replica is live and has applied everything
// committed. Replicas fall tens of records behind two producers and go on
// applying after the last acknowledgement.
func (st *Stack) Settle(timeout time.Duration) error {
	for deadline := time.Now().Add(timeout); ; time.Sleep(10 * time.Millisecond) {
		settled := true
		for _, r := range st.Set.Status() {
			settled = settled && r.State == "live" && r.AppliedLSN == st.Set.CommittedLSN()
		}
		if settled {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas not live at committed LSN %d after %v: %+v", st.Set.CommittedLSN(), timeout, st.Set.Status())
		}
	}
}

// DirBytes sums the regular files under dir.
func DirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
