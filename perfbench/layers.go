package main

import (
	"io"
	"net/http"
	"sync"
	"time"

	"popstab/internal/obs"
	"popstab/internal/serve"
)

// spanLog collects what the benchmark's own layer-boundary wrappers observe
// in a traced fleet run. Durations are keyed by the trace ID the client puts
// in obs.TraceHeader on every call; the coordinator adopts it and forwards it
// on each proxied worker call, so one key gathers a client call's spans in
// the coordinator and in the workers.
type spanLog struct {
	mu    sync.Mutex
	calls map[string]*callSpans
	puts  []float64 // checkpoint Put durations, ms
}

// callSpans sums, per client call, the time spent inside each boundary.
type callSpans struct {
	coord  time.Duration // coordinator handler
	proxy  time.Duration // coordinator→worker round trips, until the body is closed
	worker time.Duration // worker handlers
}

func newSpanLog() *spanLog { return &spanLog{calls: make(map[string]*callSpans)} }

// add charges d to one boundary of the call traced as id.
func (l *spanLog) add(id string, d time.Duration, field func(*callSpans) *time.Duration) {
	if id == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	cs := l.calls[id]
	if cs == nil {
		cs = &callSpans{}
		l.calls[id] = cs
	}
	*field(cs) += d
}

// get returns the spans recorded for a call (zero when none were).
func (l *spanLog) get(id string) callSpans {
	l.mu.Lock()
	defer l.mu.Unlock()
	if cs := l.calls[id]; cs != nil {
		return *cs
	}
	return callSpans{}
}

func coordField(cs *callSpans) *time.Duration  { return &cs.coord }
func proxyField(cs *callSpans) *time.Duration  { return &cs.proxy }
func workerField(cs *callSpans) *time.Duration { return &cs.worker }

// handler times every request h serves and charges it to field.
func (l *spanLog) handler(h http.Handler, field func(*callSpans) *time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		l.add(r.Header.Get(obs.TraceHeader), time.Since(start), field)
	})
}

// timedTransport is the coordinator's http.RoundTripper: a proxied call
// lasts from the request until the coordinator closes the response body.
type timedTransport struct {
	base http.RoundTripper
	log  *spanLog
}

// RoundTrip implements http.RoundTripper.
func (t timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	id := req.Header.Get(obs.TraceHeader)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.log.add(id, time.Since(start), proxyField)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		t.log.add(id, time.Since(start), proxyField)
	}}
	return resp, nil
}

// timedBody reports once, on the first Close.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// timedStore decorates a worker's checkpoint store, timing each Put.
type timedStore struct {
	serve.CheckpointStore
	log *spanLog
}

// Put implements serve.CheckpointStore.
func (s timedStore) Put(cp serve.Checkpoint) error {
	start := time.Now()
	err := s.CheckpointStore.Put(cp)
	d := time.Since(start)
	s.log.mu.Lock()
	s.log.puts = append(s.log.puts, ms(d))
	s.log.mu.Unlock()
	return err
}
