package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"samplednn/internal/dataset"
	"samplednn/internal/nn"
	"samplednn/internal/obs"
	"samplednn/internal/obs/trace"
	"samplednn/internal/rng"
	"samplednn/internal/serve"
	"samplednn/internal/tensor"
	"samplednn/internal/train"
)

// The serve-predict workload: open-loop POST /predict over loopback
// against an in-process serve.Server that serves an SNCK checkpoint of
// a 784→3×256→10 network. Requests are a seeded mix of 1-row and
// 64-row bodies, due at evenly spaced times on a fixed ladder of offered
// rates whatever the replies do, so a stall delays the requests behind
// it and shows in their latency. JSON decoding costs as much as
// inference at 1 row and more at 64, so both sizes are in the mix.

const (
	seqHeader = "X-Bench-Seq"

	serveHidden = 256
	// serveConns is the number of keep-alive connections, at most nproc.
	serveConns = 2
	// serveLimit is the p99 latency limit a ladder rung must meet.
	serveLimit = 250 * time.Millisecond
	// serveRefRate is the first ladder rung, where predict_p50_ms and
	// predict_p99_ms are measured; it gets refShare of the run's seconds
	// and each later rung (1-refShare)/rungShares of them.
	serveRefRate = 200
	refShare     = 0.3
	rungShares   = 7
	// Distinct pre-generated bodies: the first bigBodies carry bigRows
	// rows, the rest one row. Every bigEvery-th request of the schedule
	// is a 64-row one (~6%, so p99 is a 64-row request); the interleave
	// is fixed so that two 64-row requests never arrive back to back.
	serveBodies = 64
	bigBodies   = 8
	bigEvery    = 16
	bigRows     = 64
)

// serveLadder is the fixed ladder of offered rates in requests/s; above
// the reference rung the rates are a 1.25 ratio apart so the goodput
// interpolation spans a short step. The ladder stops after two rungs in
// a row miss the limit.
var serveLadder = []int{serveRefRate, 400, 500, 630, 800, 1000, 1250, 1600, 2000, 2500}

// serveBody is one pre-generated request and the answer it must get.
type serveBody struct {
	json []byte
	want []int
}

// servePlant is a running server with its listener.
type servePlant struct {
	srv     *serve.Server
	reg     *obs.Registry
	hs      *http.Server
	done    chan struct{}
	url     string
	wrapped *timedHandler
}

func (p *servePlant) close() {
	_ = p.hs.Close()
	<-p.done
}

// startServe writes the checkpoint, loads it into a new server and
// starts serving on a loopback port; it returns once /healthz answers.
func startServe(dir string, seed uint64, wrap bool) (*servePlant, error) {
	net0, err := nn.NewNetwork(nn.Uniform(784, serveHidden, 3, 10), rng.New(seed^0x5e7e))
	if err != nil {
		return nil, err
	}
	var blob bytes.Buffer
	if err := net0.Save(&blob); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "serve.snck")
	ck := &train.Checkpoint{Epoch: 1, MethodName: "standard", NetBlob: blob.Bytes()}
	if err := ck.WriteFile(path); err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	srv := serve.NewServer(serve.Options{MaxBodyBytes: 8 << 20, Registry: reg})
	if _, err := srv.LoadAndSwap(path); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &servePlant{srv: srv, reg: reg, done: make(chan struct{}), url: "http://" + ln.Addr().String()}
	var h http.Handler = srv.Handler()
	if wrap {
		p.wrapped = newTimedHandler(h)
		h = p.wrapped
	}
	p.hs = &http.Server{Handler: h, ReadTimeout: 30 * time.Second, WriteTimeout: 30 * time.Second}
	//lint:ignore raw-goroutine Serve blocks for the server's lifetime and returns on close(), which waits for it; it cannot be a bounded pool task
	go func() {
		defer close(p.done)
		_ = p.hs.Serve(ln)
	}()
	resp, err := http.Get(p.url + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

// makeBodies builds the seeded request bodies from the synthetic MNIST
// test split and the predictions a local Predict on the served network
// gives for each.
func makeBodies(seed uint64, net0 *nn.Network) ([]serveBody, error) {
	ds, err := dataset.Generate("mnist", dataset.Options{Seed: seed, MaxTrain: 1, MaxTest: 512, MaxVal: 1})
	if err != nil {
		return nil, err
	}
	g := rng.New(seed ^ 0xb0d1e5)
	bodies := make([]serveBody, serveBodies)
	for i := range bodies {
		rows := 1
		if i < bigBodies {
			rows = bigRows
		}
		x := tensor.New(rows, 784)
		list := make([][]float64, rows)
		for r := range list {
			copy(x.RowView(r), ds.Test.X.RowView(g.IntN(ds.Test.Len())))
			list[r] = x.RowView(r)
		}
		js, err := json.Marshal(map[string]any{"rows": list})
		if err != nil {
			return nil, err
		}
		bodies[i] = serveBody{json: js, want: net0.Predict(x)}
	}
	return bodies, nil
}

// rungResult is one offered rate's outcome.
type rungResult struct {
	rate    int
	ok      int // answered 200 with the right predictions
	latency []time.Duration
	late    []time.Duration // generator lateness against the schedule
	// Traced pass: client round trip and handler time per request.
	roundTrip []time.Duration
	handler   []time.Duration
	backlog   bool
	failed    int
}

func (r *rungResult) p99() time.Duration {
	return time.Duration(quantile(durationsMS(r.latency), 0.99) * float64(time.Millisecond))
}

// pass reports whether the rung met the limit: every scheduled request
// sent and answered correctly, p99 within serveLimit, and no growing
// backlog.
func (r *rungResult) pass(scheduled int) bool {
	return r.failed == 0 && r.ok == scheduled && !r.backlog && r.p99() <= serveLimit
}

// schedule returns the arrival offsets for one rung, evenly spaced at
// the offered rate, and the body each arrival sends, drawn from the
// seed within its size class.
func schedule(seed uint64, rate int, d time.Duration) ([]time.Duration, []int) {
	g := rng.New(seed ^ uint64(rate)<<32)
	n := int(float64(rate) * d.Seconds())
	at := make([]time.Duration, n)
	body := make([]int, n)
	for i := range at {
		at[i] = time.Duration(i) * time.Second / time.Duration(rate)
		if i%bigEvery == bigEvery/2 {
			body[i] = g.IntN(bigBodies)
		} else {
			body[i] = bigBodies + g.IntN(serveBodies-bigBodies)
		}
	}
	return at, body
}

// runRung drives one offered rate open-loop: a dispatcher releases each
// request at its due time, serveConns senders post them over keep-alive
// connections, and every request is timed from its due time. Requests
// still unsent serveLimit after the rung ends are abandoned and count as
// missing the limit.
func runRung(client *http.Client, plant *servePlant, bodies []serveBody, seed uint64, rate int, d time.Duration, modelCRC uint32) (*rungResult, int) {
	at, which := schedule(seed, rate, d)
	res := &rungResult{rate: rate}
	// Buffered to the schedule length, so the dispatcher never blocks
	// and its lateness is its own.
	queue := make(chan int, len(at))
	latency := make([]time.Duration, len(at))
	rt := make([]time.Duration, len(at))
	hdl := make([]time.Duration, len(at))
	status := make([]int, len(at)) // 0 unsent, 1 ok, 2 failed
	start := time.Now()
	abandon := start.Add(d + serveLimit)
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		//lint:ignore raw-goroutine open-loop senders, one per connection, joined by the WaitGroup below; they block on HTTP round trips the dispatcher must not wait for, so they cannot share the bounded pool
		go func() {
			defer wg.Done()
			for i := range queue {
				if time.Now().After(abandon) {
					continue
				}
				due := start.Add(at[i])
				b := bodies[which[i]]
				req, err := http.NewRequest(http.MethodPost, plant.url+"/predict", bytes.NewReader(b.json))
				if err != nil {
					status[i] = 2
					continue
				}
				req.Header.Set("Content-Type", "application/json")
				seq := strconv.Itoa(i)
				req.Header.Set(seqHeader, seq)
				sent := time.Now()
				resp, err := client.Do(req)
				var data []byte
				if err == nil {
					data, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				doneT := time.Now()
				latency[i] = doneT.Sub(due)
				rt[i] = doneT.Sub(sent)
				if err != nil || resp.StatusCode != http.StatusOK || !replyMatches(data, b.want, modelCRC) {
					status[i] = 2
					continue
				}
				status[i] = 1
				if plant.wrapped != nil {
					if ns, ok := plant.wrapped.handlerNS(seq); ok {
						hdl[i] = time.Duration(ns)
					}
				}
			}
		}()
	}
	late := make([]time.Duration, 0, len(at))
	for i := range at {
		due := start.Add(at[i])
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		late = append(late, time.Since(due))
		queue <- i
	}
	close(queue)
	wg.Wait()
	res.late = late
	// A growing backlog shows as the last tenth of the schedule waiting
	// longer than the limit even when p99 is within it.
	tail := len(at) - len(at)/10
	for i := range at {
		switch status[i] {
		case 1:
			res.ok++
			res.latency = append(res.latency, latency[i])
			if plant.wrapped != nil {
				res.roundTrip = append(res.roundTrip, rt[i])
				res.handler = append(res.handler, hdl[i])
			}
			if i >= tail && latency[i] > serveLimit {
				res.backlog = true
			}
		case 2:
			// A failed request counts as missing the limit.
			res.failed++
			res.latency = append(res.latency, max(latency[i], serveLimit+1))
		}
	}
	return res, len(at)
}

// replyMatches checks one /predict reply against the local reference.
func replyMatches(data []byte, want []int, crc uint32) bool {
	var reply struct {
		Predictions []int  `json:"predictions"`
		CRC         uint32 `json:"crc"`
	}
	if json.Unmarshal(data, &reply) != nil || reply.CRC != crc || len(reply.Predictions) != len(want) {
		return false
	}
	for i := range want {
		if reply.Predictions[i] != want[i] {
			return false
		}
	}
	return true
}

func newServeClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     serveConns,
			MaxIdleConnsPerHost: serveConns,
			DisableCompression:  true,
		},
	}
}

// rungSeconds splits the run's seconds over the ladder.
func rungSeconds(total float64, rate int) time.Duration {
	share := refShare
	if rate != serveRefRate {
		share = (1 - refShare) / rungShares
	}
	return time.Duration(total * share * float64(time.Second))
}

func servePredict(p params, r *report) error {
	var setupS []float64
	var plant *servePlant
	for i := 0; i < setupRepeats; i++ {
		if plant != nil {
			plant.close()
		}
		t0 := time.Now()
		pl, err := startServe(p.dir, p.seed, false)
		if err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		plant = pl
	}
	defer func() { plant.close() }()
	model := plant.srv.Model()
	bodies, err := makeBodies(p.seed, model.Net)
	if err != nil {
		return err
	}
	client := newServeClient()
	defer client.CloseIdleConnections()
	// Warm-up: connections, pools and lazy allocations, not measured.
	if err := warmServe(client, plant, bodies, p.seed, model.Info.CRC); err != nil {
		return err
	}

	before := plant.srv.BatchStats()
	reqs0 := plant.reg.Counter("serve.requests").Value()
	var ref, lastPass, firstFail *rungResult
	var rows [][]string
	misses := 0
	for _, rate := range serveLadder {
		res, scheduled := runRung(client, plant, bodies, p.seed, rate, rungSeconds(p.seconds, rate), model.Info.CRC)
		for i := 0; i < res.failed; i++ {
			r.check(false, "rate %g: a request failed or got a reply unlike the local Predict", rate)
		}
		r.attempted += res.ok
		pass := res.pass(scheduled)
		rows = append(rows, []string{fmt.Sprint(rate), strconv.Itoa(scheduled), strconv.Itoa(res.ok),
			fmt.Sprintf("%.3f", quantile(durationsMS(res.latency), 0.5)), fmt.Sprintf("%.3f", millis(res.p99())),
			strconv.FormatBool(res.backlog), strconv.FormatBool(pass)})
		if rate == serveRefRate {
			ref = res
		}
		if pass {
			lastPass, firstFail, misses = res, nil, 0
			continue
		}
		if firstFail == nil {
			firstFail = res
		}
		if misses++; misses == 2 {
			break
		}
	}
	// The highest passing rung counts even when a lower one missed.
	var goodput float64
	switch {
	case lastPass == nil: // every rung missed the limit
	case firstFail == nil:
		goodput = float64(lastPass.rate) // every rung passed
	default:
		goodput = goodputBetween(lastPass, firstFail)
	}
	after := plant.srv.BatchStats()
	reqs := plant.reg.Counter("serve.requests").Value() - reqs0
	r.tables = append(r.tables, table(
		fmt.Sprintf("open-loop ladder, %d connections, p99 limit %v (latency from due time, ms); goodput %.1f/s:",
			serveConns, serveLimit, goodput),
		[]string{"rate", "scheduled", "ok", "p50", "p99", "backlog", "pass"}, rows))
	if ref == nil || len(ref.latency) == 0 {
		return errors.New("reference rung produced no latencies")
	}
	refP50 := quantile(durationsMS(ref.latency), 0.5)
	if !p.trace {
		r.add("op_ms", "ms", refP50)
		r.add("setup_s", "s", median(setupS))
		r.detail("predict_p99_ms", "ms", quantile(durationsMS(ref.latency), 0.99))
		return nil
	}
	// Goodput depends on where near capacity p99 crosses the limit; on a
	// 2-CPU host shared with the load generator that moved by a quarter
	// between runs, too much for a bound, so it is reported ungated with
	// the traced run's per-layer metrics.
	r.detail("predict_goodput_rps", "1/s", goodput)
	r.detail("serve.coalesce", "requests/batch", float64(reqs)/math.Max(float64(after.Batches-before.Batches), 1))
	r.detail("serve.batch_rows_max", "rows", float64(plant.reg.Distribution("serve.batch.rows").Snapshot().Max))
	return traceServe(p, r, bodies, refP50)
}

// goodputBetween estimates the offered rate at which p99 reaches the
// limit, from the highest passing rung and the first failing one above
// it: log p99 is interpolated linearly in the rate. A discrete ladder
// rung would jump by the ladder ratio whenever the limit falls near a
// rung; the interpolation moves smoothly with the system's latency. A
// rung that failed on errors or backlog with p99 still inside the limit
// gives no slope, and the passing rate stands.
func goodputBetween(pass, fail *rungResult) float64 {
	lo, hi := pass.p99(), fail.p99()
	if hi <= serveLimit || lo <= 0 {
		return float64(pass.rate)
	}
	f := math.Log(float64(serveLimit)/float64(lo)) / math.Log(float64(hi)/float64(lo))
	return float64(pass.rate) + f*float64(fail.rate-pass.rate)
}

// warmServe sends a short burst at the reference rate and discards it.
func warmServe(client *http.Client, plant *servePlant, bodies []serveBody, seed uint64, crc uint32) error {
	res, n := runRung(client, plant, bodies, seed^0x3a3a, serveRefRate, 250*time.Millisecond, crc)
	if res.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed", res.failed, n)
	}
	return nil
}

// traceServe repeats the reference rung against a fresh server whose
// handler is wrapped and with the tracer installed, and reports the
// per-layer split of a request.
func traceServe(p params, r *report, bodies []serveBody, untracedP50 float64) error {
	plant, err := startServe(p.dir, p.seed, true)
	if err != nil {
		return err
	}
	defer plant.close()
	model := plant.srv.Model()
	client := newServeClient()
	defer client.CloseIdleConnections()
	if err := warmServe(client, plant, bodies, p.seed, model.Info.CRC); err != nil {
		return err
	}
	tracer := trace.New(traceRing)
	trace.SetActive(tracer)
	res, _ := runRung(client, plant, bodies, p.seed, serveRefRate, rungSeconds(p.seconds, serveRefRate), model.Info.CRC)
	trace.SetActive(nil)
	for i := 0; i < res.failed; i++ {
		r.check(false, "traced reference rung: a request failed or got a reply unlike the local Predict")
	}
	r.attempted += res.ok
	r.check(tracer.Dropped() == 0, "serve: tracer dropped %d spans", tracer.Dropped())
	if len(res.handler) == 0 {
		return errors.New("traced reference rung produced no handler timings")
	}
	var transport []float64
	for i := range res.roundTrip {
		transport = append(transport, millis(res.roundTrip[i]-res.handler[i]))
	}
	r.detail("serve.handler_ms.p50", "ms", quantile(durationsMS(res.handler), 0.5))
	r.detail("serve.handler_ms.p99", "ms", quantile(durationsMS(res.handler), 0.99))
	r.detail("serve.transport_ms.p50", "ms", median(transport))
	r.detail("nn.infer_ms.rows1", "ms", replayPredict(model.Net, bodies, 1))
	r.detail("nn.infer_ms.rows64", "ms", replayPredict(model.Net, bodies, bigRows))
	r.detail("loadgen.late_ms.p99", "ms", quantile(durationsMS(res.late), 0.99))
	tracedP50 := quantile(durationsMS(res.latency), 0.5)
	r.add("trace.overhead_pct", "%", 100*(tracedP50-untracedP50)/untracedP50)

	// Per request: inference is the infer spans of the served network's
	// layers, whatever batch the convoy put the request in; the rest of
	// the request's mean latency from its due time is the overhead.
	spans := sumSpans(tracer)
	n := float64(res.ok)
	r.add("compute_ms", "ms", millis(spans.infer)/n)
	r.add("overhead_ms", "ms", mean(durationsMS(res.latency))-millis(spans.infer)/n)
	for l, d := range spans.inferLayer {
		r.add(fmt.Sprintf("forward_ms.L%d", l), "ms", millis(d)/n)
	}
	allocs, allocBytes, err := handlerAllocs(plant.srv.Handler(), bodies, p.seed, model.Info.CRC)
	if err != nil {
		return err
	}
	r.add("allocs_per_op", "count", allocs)
	r.add("alloc_bytes_per_op", "B", allocBytes)
	return nil
}

// handlerAllocs replays the reference rung's request mix straight into
// the server's handler, one request at a time and outside the network,
// and returns the heap allocations and bytes per request: the server's
// own, without the in-process load generator's.
func handlerAllocs(h http.Handler, bodies []serveBody, seed uint64, crc uint32) (float64, float64, error) {
	const n = 4 * bigEvery * 8
	_, which := schedule(seed, serveRefRate, time.Duration(n)*time.Second/serveRefRate)
	reqs := make([]*http.Request, len(which))
	recs := make([]*httptest.ResponseRecorder, len(which))
	for i, b := range which {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(bodies[b].json))
		reqs[i].Header.Set("Content-Type", "application/json")
		recs[i] = httptest.NewRecorder()
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for i := range reqs {
		h.ServeHTTP(recs[i], reqs[i])
	}
	runtime.ReadMemStats(&ms1)
	for i, b := range which {
		if recs[i].Code != http.StatusOK || !replyMatches(recs[i].Body.Bytes(), bodies[b].want, crc) {
			return 0, 0, fmt.Errorf("replayed request %d: status %d or a reply unlike the local Predict", i, recs[i].Code)
		}
	}
	k := float64(len(reqs))
	return float64(ms1.Mallocs-ms0.Mallocs) / k, float64(ms1.TotalAlloc-ms0.TotalAlloc) / k, nil
}

// replayPredict times Predict on the served network outside the server
// for the first body of the given row count; it returns the median of
// repeated calls in milliseconds.
func replayPredict(net0 *nn.Network, bodies []serveBody, rows int) float64 {
	var x *tensor.Matrix
	for _, b := range bodies {
		if len(b.want) != rows {
			continue
		}
		var req struct {
			Rows [][]float64 `json:"rows"`
		}
		if json.Unmarshal(b.json, &req) != nil {
			return math.NaN()
		}
		x = tensor.New(rows, 784)
		for i, row := range req.Rows {
			copy(x.RowView(i), row)
		}
		break
	}
	if x == nil {
		return math.NaN()
	}
	reps := 2000 / rows
	ts := make([]float64, reps)
	for i := range ts {
		t0 := time.Now()
		net0.Predict(x)
		ts[i] = millis(time.Since(t0))
	}
	return median(ts)
}
