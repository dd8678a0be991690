package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// loadResult is what one closed-loop drive observed.
type loadResult struct {
	latencies []time.Duration // one per completed request, send to body read
	starts    []time.Duration // each request's send, as an offset from the loop's start
	attempted int
	failed    int
	elapsed   time.Duration
	// scaled and scaledElapsed are latencies and elapsed at reference
	// speed (see speed.go); refMedian is the kernel's median time.
	scaled        []time.Duration
	scaledElapsed time.Duration
	refMedian     time.Duration
	// overheads holds round trip minus server-reported elapsed_ns, per
	// successful request (traced drives only).
	overheads    []time.Duration
	firstFailure string
}

// merge sums two drives' observations.
func merge(a, b loadResult) loadResult {
	a.latencies = append(a.latencies, b.latencies...)
	a.starts = append(a.starts, b.starts...)
	a.scaled = append(a.scaled, b.scaled...)
	a.overheads = append(a.overheads, b.overheads...)
	a.attempted += b.attempted
	a.failed += b.failed
	a.elapsed += b.elapsed
	a.scaledElapsed += b.scaledElapsed
	if a.firstFailure == "" {
		a.firstFailure = b.firstFailure
	}
	return a
}

// queryReply is the part of a /query response the checker reads; table
// and index mode both carry these fields.
type queryReply struct {
	Matches   int   `json:"matches"`
	ElapsedNS int64 `json:"elapsed_ns"`
	RIDs      []int `json:"rids"`
}

// queryURLs renders the request URL of every stream entry; sampled
// entries ask for their first ridLimit row ids.
func queryURLs(base string, stream []query) []string {
	urls := make([]string, len(stream))
	for i, q := range stream {
		urls[i] = base + "/query?q=" + url.QueryEscape(q.text)
		if q.rids != nil {
			urls[i] += fmt.Sprintf("&rids=1&limit=%d", ridLimit)
		}
	}
	return urls
}

// drive runs a closed loop of conns clients against base for dur: each
// client sends its next request only after reading the previous reply.
// Clients take stream entries in order from one shared cursor starting at
// entry 0, wrapping around, and check every answer. Every refEvery the
// loop holds back new requests, waits for those in flight, and times the
// reference kernel; latencies and elapsed are also returned at reference
// speed. When tr is non-nil each request is recorded as a span.
func drive(base string, stream []query, conns int, dur time.Duration, tr *tracer) loadResult {
	hc := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	defer hc.CloseIdleConnections()
	// The client shares its CPU with the server; its own collector cycles
	// would land in the measured tail. Its garbage per request is small,
	// so it collects rarely while driving.
	defer debug.SetGCPercent(debug.SetGCPercent(800))
	urls := queryURLs(base, stream)

	var (
		cursor atomic.Int64
		mu     sync.Mutex
		res    loadResult
		wg     sync.WaitGroup
		// gate is held shared by each request and exclusively by each
		// kernel timing, so the kernel runs with no request in flight.
		gate sync.RWMutex
		refs []refSample
	)
	start := time.Now()
	deadline := start.Add(dur)
	timeRef := func() {
		gate.Lock()
		defer gate.Unlock()
		at := time.Since(start)
		refs = append(refs, refSample{at: at, took: refKernel()})
	}
	timeRef()
	stopRef, refDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(refDone)
		tick := time.NewTicker(refEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopRef:
				return
			case <-tick.C:
				timeRef()
			}
		}
	}()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var (
				lr   loadResult
				body bytes.Buffer
			)
			for time.Now().Before(deadline) {
				seq := int(cursor.Add(1) - 1)
				i := seq % len(stream)
				gate.RLock()
				t0 := time.Now()
				reply, err := fetch(hc, urls[i], &body)
				lat := time.Since(t0)
				gate.RUnlock()
				lr.attempted++
				lr.latencies = append(lr.latencies, lat)
				lr.starts = append(lr.starts, t0.Sub(start))
				if err == nil {
					err = check(&stream[i], reply)
				}
				if err != nil {
					lr.failed++
					if lr.firstFailure == "" {
						lr.firstFailure = fmt.Sprintf("query %d %q: %v", i, stream[i].text, err)
					}
					continue
				}
				if tr != nil {
					srv := time.Duration(reply.ElapsedNS)
					lr.overheads = append(lr.overheads, lat-srv)
					id := tr.record("bixstore.request", 0, seq, t0, t0.Add(lat), false)
					// The server reports only its own duration; the span
					// is placed centred in the round trip.
					s0 := t0.Add((lat - srv) / 2)
					tr.record("bixstore.server", id, seq, s0, s0.Add(srv), false)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			res = merge(res, lr)
		}()
	}
	wg.Wait()
	close(stopRef)
	<-refDone
	timeRef()
	sc := newSpeedScale(refs)
	res.elapsed = sc.rawElapsed()
	res.scaled = make([]time.Duration, len(res.latencies))
	for i, lat := range res.latencies {
		res.scaled[i] = time.Duration(float64(lat) * sc.at(res.starts[i]))
	}
	res.scaledElapsed = sc.elapsed()
	res.refMedian = sc.medianRef()
	return res
}

// fetch sends one GET and decodes the reply; a transport error or a
// non-200 status is an error.
func fetch(hc *http.Client, u string, body *bytes.Buffer) (queryReply, error) {
	var reply queryReply
	resp, err := hc.Get(u)
	if err != nil {
		return reply, err
	}
	body.Reset()
	_, err = body.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return reply, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body.Bytes()))
	}
	err = json.Unmarshal(body.Bytes(), &reply)
	return reply, err
}

// check compares a reply with the brute-force answer.
func check(q *query, reply queryReply) error {
	if reply.Matches != q.count {
		return fmt.Errorf("matches %d, brute force %d", reply.Matches, q.count)
	}
	if q.rids != nil && !slices.Equal(reply.RIDs, q.rids) {
		return fmt.Errorf("rids %v, brute force %v", reply.RIDs, q.rids)
	}
	return nil
}
