package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"testing"
	"time"
)

// TestFrontDoorCutsOffTrickledBody: a client that sends its headers promptly
// and then trickles its body a byte at a time is cut off once the whole
// request has taken the server's read bound, instead of holding a connection
// and a handler goroutine for as long as it keeps trickling; afterwards no
// goroutine of the request is left. The bound is shortened here so the test
// runs in a second; the server is built as serve builds it.
func TestFrontDoorCutsOffTrickledBody(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", nil)
	if srv.ReadTimeout != readTimeout || readTimeout <= 0 || srv.ReadHeaderTimeout != readHeaderTimeout {
		t.Fatalf("read bounds %v / %v, want %v / %v", srv.ReadHeaderTimeout, srv.ReadTimeout, readHeaderTimeout, readTimeout)
	}
	const bound = 300 * time.Millisecond
	srv.ReadTimeout = bound
	handled := make(chan error, 1)
	srv.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, err := io.ReadAll(r.Body)
		handled <- err
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	idle := runtime.NumGoroutine()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	fmt.Fprintf(conn, "POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n")
	stop := make(chan struct{})
	defer close(stop)
	go func() { // one byte every 20 ms: 4 KiB would take 80 s
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
				if _, err := conn.Write([]byte{'x'}); err != nil {
					return
				}
			}
		}
	}()
	select {
	case err := <-handled:
		if err == nil {
			t.Fatal("the handler read a whole trickled body")
		}
		if d := time.Since(start); d > bound+time.Second {
			t.Fatalf("the body read ended after %v, bound %v", d, bound)
		}
	case <-time.After(bound + 5*time.Second):
		t.Fatal("a trickled body held its handler past the read bound")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > idle+1 { // the trickling writer may still be in its sleep
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, %d before the request", runtime.NumGoroutine(), idle)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
