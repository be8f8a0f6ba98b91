package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"perm"
	"perm/internal/service"
)

// loopback is a service.Server on a loopback listener, with a client.
type loopback struct {
	srv    *service.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	tr     *tracer // nil: untraced

	stopOnce sync.Once
	stopErr  error
}

const (
	hdrOp   = "X-Perfbench-Op"
	hdrSpan = "X-Perfbench-Span"
)

// startLoopback serves db's service on 127.0.0.1 with a client that keeps
// up to conns connections open.
func startLoopback(db *perm.DB, conns int, tr *tracer) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{
		// Admit every request the benchmark can have in flight: a request
		// the server sheds would be a failed operation.
		srv:    service.New(service.Config{DB: db, MaxConcurrent: max(conns, 1)}),
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		tr:     tr,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
		}},
	}
	var h http.Handler = lb.srv
	if tr != nil {
		h = http.HandlerFunc(lb.tracedServe)
	}
	lb.hs = &http.Server{Handler: h}
	go func() { lb.served <- lb.hs.Serve(ln) }()
	return lb, nil
}

// stop shuts the HTTP server and the service down and waits for Serve to
// return. Calls after the first return the first call's error.
func (lb *loopback) stop() error {
	lb.stopOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		lb.client.CloseIdleConnections()
		err := lb.hs.Shutdown(ctx)
		if serr := lb.srv.Shutdown(ctx); err == nil {
			err = serr
		}
		if serr := <-lb.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		lb.stopErr = err
	})
	return lb.stopErr
}

// captureWriter keeps a copy of the response body for the tracer.
type captureWriter struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (w *captureWriter) Write(b []byte) (int, error) {
	w.body.Write(b)
	return w.ResponseWriter.Write(b)
}

// tracedServe wraps Server.ServeHTTP in a service.serve span, with the
// engine time the response reports (elapsed_ms) as its child.
func (lb *loopback) tracedServe(w http.ResponseWriter, r *http.Request) {
	op, err1 := strconv.Atoi(r.Header.Get(hdrOp))
	parent, err2 := strconv.Atoi(r.Header.Get(hdrSpan))
	if err1 != nil || err2 != nil {
		lb.srv.ServeHTTP(w, r)
		return
	}
	id := lb.tr.begin("service.serve", op, parent)
	start := lb.tr.startOf(id)
	cw := &captureWriter{ResponseWriter: w}
	lb.srv.ServeHTTP(cw, r)
	lb.tr.end(id)
	var resp struct {
		ElapsedMS float64 `json:"elapsed_ms"`
	}
	if json.Unmarshal(cw.body.Bytes(), &resp) == nil && resp.ElapsedMS > 0 {
		lb.tr.add("service.engine", op, id, start, start+int64(resp.ElapsedMS*1e6))
	}
}

// post sends one JSON request and returns the response body; a status
// other than 200 is an error. With a tracer and op >= 0 the round trip is
// a service.client span and the server records its spans under it.
func (lb *loopback) post(path string, body any, op int) ([]byte, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, lb.base+path, bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	id := -1
	if lb.tr != nil && op >= 0 {
		id = lb.tr.begin("service.client", op, -1)
		req.Header.Set(hdrOp, strconv.Itoa(op))
		req.Header.Set(hdrSpan, strconv.Itoa(id))
	}
	resp, err := lb.client.Do(req)
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if id >= 0 {
		lb.tr.end(id)
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// queryResponse is the part of a /query response the checks compare.
type queryResponse struct {
	Columns []string        `json:"columns"`
	Rows    json.RawMessage `json:"rows"`
}

// expectedJSON renders a library result's rows exactly as the service
// encodes them.
func expectedJSON(res *perm.Result) (string, error) {
	rows := res.Rows
	if rows == nil {
		rows = [][]any{}
	}
	b, err := json.Marshal(rows)
	return string(b), err
}
