package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpusimpow/internal/fleet"
	"gpusimpow/internal/service"
	"gpusimpow/internal/simcache"
	"gpusimpow/internal/sweep"
)

// serviceClients is the closed loop's client count: one per CPU of the
// 2-CPU host the benchmark was defined on.
const serviceClients = 2

// retainAge bounds the daemon's job table, and so its memory and journal,
// by age: a terminal job leaves the table (and, through compaction, the
// journal) half a second after it finished, which is long after its client
// has read the report. A count bound (-retain N) does not fit a closed loop
// with two clients: it evicts by creation order, so a long job that
// finishes after N newer jobs is pruned as it finishes and its client's
// report request gets a 404.
const retainAge = 500 * time.Millisecond

// jobKind is one entry of the job menu: a sweep scenario, a filter its
// CheckFilter and reducer accept, and the report built locally in set-up.
type jobKind struct {
	scenario string
	filter   sweep.Filter
	cells    int
	want     *sweep.Report
}

func (k jobKind) String() string {
	return fmt.Sprintf("%s%v", k.scenario, map[string][]string(k.filter))
}

// httpServer serves one handler on a loopback port until close.
type httpServer struct {
	srv  *http.Server
	url  string
	done chan error
}

func serve(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

func (s *httpServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // on timeout the listener is closed anyway
	<-s.done
}

// daemon is an in-process gpowd: a Manager with a journal in its own state
// directory behind the HTTP server.
type daemon struct {
	m        *service.Manager
	http     *httpServer
	stateDir string
}

func startDaemon(stateDir string) (*daemon, error) {
	m, err := service.OpenManager(service.Options{StateDir: stateDir, RetainAge: retainAge})
	if err != nil {
		return nil, err
	}
	h, err := serve(service.NewServer(m))
	if err != nil {
		m.Close()
		return nil, err
	}
	return &daemon{m: m, http: h, stateDir: stateDir}, nil
}

func (d *daemon) close() {
	d.http.close()
	d.m.Close()
}

// countingTransport counts error responses and response bytes.
type countingTransport struct {
	errors atomic.Int64
	bytes  atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 {
		t.errors.Add(1)
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	k, err := b.ReadCloser.Read(p)
	b.n.Add(int64(k))
	return k, err
}

// newClient returns a client that does not retry: a refused or failed
// request is a failed job, never hidden by a backoff.
func newClient(base string) (*service.Client, *countingTransport) {
	ct := &countingTransport{}
	return &service.Client{Base: base, HTTP: &http.Client{Transport: ct}, RetryAttempts: -1}, ct
}

// jobMenu holds, per sweep scenario, the job kinds it accepts: its full
// grid first, then every single-value filter its CheckFilter and reducer
// accept (fig6 takes only gpu; energyperop takes none).
type jobMenu [][]jobKind

// pick draws a job: a sweep scenario uniformly, then one of its kinds
// uniformly. Every scenario gets the same share of the traffic, whatever
// the number of its axis values. This mix is a choice, not a measured
// one: no record of real gpowd traffic exists to weight it by.
func (m jobMenu) pick(rng *rand.Rand) jobKind {
	kinds := m[rng.IntN(len(m))]
	return kinds[rng.IntN(len(kinds))]
}

func (m jobMenu) kinds() int {
	n := 0
	for _, ks := range m {
		n += len(ks)
	}
	return n
}

// buildMenu primes the cache with every sweep scenario's full grid (the
// unfiltered report builds run every cell) and then builds, warm, the
// report of every single-value filter the scenario accepts.
func buildMenu() (jobMenu, error) {
	var menu jobMenu
	for _, sc := range sweep.Scenarios() {
		if sc.Spec == nil {
			continue
		}
		var kinds []jobKind
		filters := []sweep.Filter{nil}
		for _, ax := range sc.Spec().Axes {
			for _, v := range ax.Values {
				filters = append(filters, sweep.Filter{ax.Name: {v.Name}})
			}
		}
		for i, f := range filters {
			rep, err := sweep.BuildReport(sc.Name, f)
			if err != nil {
				if i == 0 {
					return nil, fmt.Errorf("%s: %w", sc.Name, err)
				}
				continue // the scenario rejects this filter
			}
			plan, err := sc.Spec().Plan(f)
			if err != nil {
				return nil, err
			}
			kinds = append(kinds, jobKind{scenario: sc.Name, filter: f, cells: len(plan.Cells), want: rep})
		}
		menu = append(menu, kinds)
	}
	return menu, nil
}

// jobTimes is one job's client-side stages.
type jobTimes struct {
	total                             time.Duration
	submit, firstCell, stream, report time.Duration
	id                                string
}

// runJob submits one job, streams its cells, fetches its report and checks
// it against the locally built one.
func runJob(ctx context.Context, c *service.Client, ct *countingTransport, k jobKind) (jobTimes, error) {
	var jt jobTimes
	errs0 := ct.errors.Load()
	t0 := time.Now()
	st, err := c.Submit(ctx, sweep.JobRequest{Scenario: k.scenario, Filter: k.filter})
	jt.submit = time.Since(t0)
	if err != nil {
		return jt, err
	}
	jt.id = st.ID
	t1 := time.Now()
	n := 0
	err = c.StreamCells(ctx, st.ID, func(*sweep.CellRecord) error {
		if n == 0 {
			jt.firstCell = time.Since(t1)
		}
		n++
		return nil
	})
	jt.stream = time.Since(t1)
	if err != nil {
		return jt, err
	}
	t2 := time.Now()
	rep, err := c.Report(ctx, st.ID)
	jt.report = time.Since(t2)
	jt.total = time.Since(t0)
	switch {
	case err != nil:
		return jt, err
	case n != k.cells:
		return jt, fmt.Errorf("job %s (%s): %d cells streamed, want %d", st.ID, k, n, k.cells)
	case !reflect.DeepEqual(rep, k.want):
		return jt, fmt.Errorf("job %s (%s): report differs from the local build", st.ID, k)
	case ct.errors.Load() != errs0:
		return jt, fmt.Errorf("job %s (%s): error responses", st.ID, k)
	}
	return jt, nil
}

// jobPhase is one closed-loop phase's outcome.
type jobPhase struct {
	wall         time.Duration
	jobMS        []float64
	jobs, failed int
	firstErr     error
	// byScenario counts the phase's jobs per sweep scenario.
	byScenario map[string]int
}

// shares formats the phase's job mix: each scenario's share of its jobs.
func (ph *jobPhase) shares() string {
	names := make([]string, 0, len(ph.byScenario))
	for name := range ph.byScenario {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, " %s %.1f%%", name, 100*float64(ph.byScenario[name])/float64(ph.jobs))
	}
	return strings.TrimSpace(b.String())
}

// runJobs runs the closed loop: each client waits for its job's report
// before submitting the next, until the budget is spent. observe, when
// set, runs after every job on the client's goroutine.
func runJobs(base string, menu jobMenu, rngBase uint64, rc *runCtx, budget time.Duration, observe func(c *service.Client, jt jobTimes)) (*jobPhase, []*countingTransport) {
	ph := &jobPhase{byScenario: map[string]int{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	cts := make([]*countingTransport, serviceClients)
	t0 := time.Now()
	for ci := 0; ci < serviceClients; ci++ {
		c, ct := newClient(base)
		cts[ci] = ct
		rng := rc.rng(rngBase + uint64(ci))
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for time.Since(t0) < budget {
				k := menu.pick(rng)
				jt, err := runJob(ctx, c, ct, k)
				mu.Lock()
				ph.jobs++
				ph.byScenario[k.scenario]++
				if err != nil {
					ph.failed++
					if ph.firstErr == nil {
						ph.firstErr = err
					}
				} else {
					ph.jobMS = append(ph.jobMS, ms(jt.total))
				}
				mu.Unlock()
				if observe != nil && err == nil {
					observe(c, jt)
				}
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(t0)
	return ph, cts
}

func runServiceWarm(rc *runCtx) (*result, error) {
	var d *daemon
	var menu jobMenu
	rep := 0
	res := &result{metrics: map[string]float64{}}
	err := rc.setupReps(res, 3, func() error {
		if d != nil {
			d.close()
		}
		rep++
		simcache.Default().Reset()
		var err error
		if d, err = startDaemon(filepath.Join(rc.scratch, fmt.Sprintf("state-%d", rep))); err != nil {
			return err
		}
		menu, err = buildMenu()
		return err
	})
	if d != nil {
		defer d.close()
	}
	if err != nil {
		return nil, err
	}
	res.notef("%d job kinds in %d scenarios", menu.kinds(), len(menu))

	// Every timing stage after set-up must be a memory hit: a miss means
	// the simulator woke up, and fails every job of the run.
	misses0 := simcache.Default().Stats().Misses
	if !rc.trace {
		err = runServiceJobs(rc, res, d, menu)
	} else {
		err = traceServiceWarm(rc, res, d, menu)
	}
	if err != nil {
		return nil, err
	}
	if n := simcache.Default().Stats().Misses - misses0; n != 0 {
		res.notef("simcache: %d misses after set-up, want 0; every job counts as failed", n)
		res.failed = res.attempted
	}
	return res, nil
}

// runServiceJobs is the untraced run: the closed loop for the whole budget.
func runServiceJobs(rc *runCtx, res *result, d *daemon, menu jobMenu) error {
	ph, _ := runJobs(d.http.url, menu, 3000, rc, rc.seconds, nil)
	res.attempted, res.failed = ph.jobs, ph.failed
	if ph.firstErr != nil {
		res.notef("first failure: %v", ph.firstErr)
	}
	if len(ph.jobMS) == 0 {
		return errors.New("no job completed")
	}
	lat := summarize(ph.jobMS)
	res.metrics["latency_p50_ms"] = lat.p50
	res.metrics["latency_p90_ms"] = lat.p90
	res.metrics["ops_per_s"] = float64(ph.jobs-ph.failed) / ph.wall.Seconds()
	res.notef("job latency: p50 %.4f ms, p90 %.4f ms, max %.1f ms over %d jobs (%d beyond p90) from %d clients",
		lat.p50, lat.p90, quantile(ph.jobMS, 1), lat.n, lat.beyondP90, serviceClients)
	res.notef("job mix: %s", ph.shares())
	return nil
}

// traceServiceWarm runs the closed loop untraced and traced for half the
// budget each, then the same jobs through a one-backend fleet router, then
// one warm pipeline pass over every scenario's full grid, which prices the
// per-job work (instance builds, simulator construction, cache replay,
// power, card measurement, reduction) that the server does.
func traceServiceWarm(rc *runCtx, res *result, d *daemon, menu jobMenu) error {
	tr := rc.tr
	m := res.metrics
	plain, plainCTs := runJobs(d.http.url, menu, 3000, rc, rc.seconds/2, nil)

	c0 := simcache.Default().Stats()
	var obsMu sync.Mutex
	lastDir, err := dirBytes(d.stateDir)
	if err != nil {
		return err
	}
	var growth int64
	var jobID atomic.Int64
	traced, tracedCTs := runJobs(d.http.url, menu, 4000, rc, rc.seconds/2, func(c *service.Client, jt jobTimes) {
		op := fmt.Sprintf("job-%d", jobID.Add(1))
		// The client timed the stages; record them as spans under the job.
		end := time.Since(tr.origin)
		start := end - jt.total
		root := tr.record(-1, op, "service.job", start, end)
		tr.record(root, op, "service.submit", start, start+jt.submit)
		s := start + jt.submit
		stream := tr.record(root, op, "service.stream", s, s+jt.stream)
		tr.record(stream, op, "service.first_cell", s, s+jt.firstCell)
		tr.record(root, op, "service.report", end-jt.report, end)
		if st, err := c.Job(context.Background(), jt.id); err == nil && st.Started != nil && st.Finished != nil {
			tr.add("service.queue_wait_ms", ms(st.Started.Sub(st.Created)))
			tr.add("service.run_ms", ms(st.Finished.Sub(*st.Started)))
			tr.add("service.statuses", 1)
		}
		obsMu.Lock()
		defer obsMu.Unlock()
		if n, err := dirBytes(d.stateDir); err == nil {
			if n > lastDir {
				growth += n - lastDir
			}
			lastDir = n
		}
	})
	res.attempted += plain.jobs + traced.jobs
	res.failed += plain.failed + traced.failed
	if len(plain.jobMS) == 0 || len(traced.jobMS) == 0 {
		return errors.New("no job completed")
	}
	m["trace.overhead_frac"] = median(traced.jobMS)/median(plain.jobMS) - 1
	okJobs := float64(traced.jobs - traced.failed)
	for _, name := range []string{"submit", "first_cell", "stream", "report"} {
		m["service."+name+"_ms"], _ = tr.meanMS("service." + name)
	}
	if n := tr.count("service.statuses"); n > 0 {
		m["service.queue_wait_ms"] = tr.count("service.queue_wait_ms") / n
		m["service.run_ms"] = tr.count("service.run_ms") / n
	}
	var bytes, rejected int64
	for _, ct := range tracedCTs {
		bytes += ct.bytes.Load()
		rejected += ct.errors.Load()
	}
	for _, ct := range plainCTs {
		rejected += ct.errors.Load()
	}
	m["service.bytes_per_job"] = float64(bytes) / okJobs
	m["service.rejected"] = float64(rejected)
	m["journal.bytes_per_job"] = float64(growth) / okJobs
	res.notef("jobs: %d untraced (p50 %.4f ms), %d traced (p50 %.4f ms)", plain.jobs, median(plain.jobMS), traced.jobs, median(traced.jobMS))
	res.notef("job mix, traced: %s", traced.shares())

	overhead, n, failed, err := fleetOverhead(rc, d, menu)
	if err != nil {
		return err
	}
	res.attempted += 2 * n
	res.failed += failed
	m["fleet.proxy_overhead_ms"] = overhead

	// Warm pipeline pass: every full grid, checked against the set-up
	// reports; the cache must serve every timing result.
	pl := &pipeline{tr: tr, op: "warm"}
	for _, kinds := range menu {
		k := kinds[0]
		res.attempted++
		sp := tr.begin(-1, "warm", "experiments."+k.scenario)
		rep, err := pl.report(sp, part{k.scenario, nil})
		tr.end(sp)
		if err != nil || !reflect.DeepEqual(rep, k.want) {
			res.failed++
		}
	}
	c1 := simcache.Default().Stats()
	fillSimcache(m, simcache.Stats{
		Hits: c1.Hits - c0.Hits, Misses: c1.Misses - c0.Misses,
		DiskHits: c1.DiskHits - c0.DiskHits, Bytes: c1.Bytes,
	})
	fillPipeline(tr, m)
	res.notef("simcache over the traced phases: %d hits, %d misses", c1.Hits-c0.Hits, c1.Misses-c0.Misses)
	for _, l := range selfTable(tr.selfTimes()) {
		res.notef("self %s s", l)
	}
	return nil
}

// fleetOverhead runs pairs of identical jobs, one straight to the daemon
// and one through a fleet router fronting it alone, and returns the median
// of the paired differences in milliseconds, the pairs run and the jobs
// that failed.
func fleetOverhead(rc *runCtx, d *daemon, menu jobMenu) (float64, int, int, error) {
	rt, err := fleet.NewRouter(fleet.Options{Backends: []fleet.BackendSpec{{Name: "b0", URL: d.http.url}}})
	if err != nil {
		return 0, 0, 0, err
	}
	defer rt.Close()
	h, err := serve(rt)
	if err != nil {
		return 0, 0, 0, err
	}
	defer h.close()
	direct, dct := newClient(d.http.url)
	routed, rct := newClient(h.url)
	rng := rc.rng(5000)
	ctx := context.Background()
	var diffs []float64
	pairs, failed := 0, 0
	t0 := time.Now()
	for time.Since(t0) < rc.seconds/4 {
		k := menu.pick(rng)
		pairs++
		a, errA := runJob(ctx, direct, dct, k)
		b, errB := runJob(ctx, routed, rct, k)
		if errA != nil {
			failed++
		}
		if errB != nil {
			failed++
		}
		if errA != nil || errB != nil {
			continue
		}
		diffs = append(diffs, ms(b.total-a.total))
	}
	if len(diffs) == 0 {
		return 0, pairs, failed, errors.New("no fleet job pair completed")
	}
	return median(diffs), pairs, failed, nil
}
