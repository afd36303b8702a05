package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"granulock/internal/lockmgr"
	"granulock/internal/locksrv"
	"granulock/internal/obs"
	"granulock/internal/wal"
)

// startTestService wires the same pieces main does — a metrics
// registry shared by the lock table and the server, and the admin mux
// on an httptest listener — and returns them with a cleanup.
func startTestService(t *testing.T) (*locksrv.Server, *obs.Registry, *httptest.Server) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	srv := locksrv.NewServer(lis, lockmgrTable(reg),
		locksrv.WithGrace(200*time.Millisecond),
		locksrv.WithMetrics(reg),
	)
	go srv.Serve()
	admin := httptest.NewServer(newAdminMux(reg, srv))
	t.Cleanup(func() {
		admin.Close()
		srv.Close()
	})
	return srv, reg, admin
}

// scrape fetches url and returns the body.
func scrape(t *testing.T, url string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp
}

// TestAdminEndpointServesMetrics drives net-style traffic through the
// lock service — grants, a forced timeout, a session teardown — then
// scrapes /metrics over HTTP and checks the exposition parses as valid
// Prometheus text with the session, grant and timeout families
// populated.
func TestAdminEndpointServesMetrics(t *testing.T) {
	srv, _, admin := startTestService(t)

	holder, err := locksrv.DialV2(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	reqs := []lockmgr.Request{{Granule: 1, Mode: lockmgr.ModeExclusive}}
	if err := holder.AcquireAll(1, reqs); err != nil {
		t.Fatal(err)
	}

	// A second session contends on the held granule and times out.
	waiter, err := locksrv.DialV2(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	err = waiter.AcquireAllTimeout(2, reqs, 30*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("contended acquire: got %v, want timeout", err)
	}
	waiter.Close()
	if err := holder.ReleaseAll(1); err != nil {
		t.Fatal(err)
	}

	body, resp := scrape(t, admin.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	samples, err := obs.ParseText(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics is not valid Prometheus text: %v\n%s", err, body)
	}
	value := func(name string) (float64, bool) {
		for _, s := range samples {
			if s.Name == name {
				return s.Value, true
			}
		}
		return 0, false
	}
	if v, ok := value("granulock_locksrv_sessions_opened_total"); !ok || v < 2 {
		t.Fatalf("sessions_opened_total = %v (present %v), want >= 2", v, ok)
	}
	if v, ok := value("granulock_locksrv_grants_total"); !ok || v < 1 {
		t.Fatalf("grants_total = %v (present %v), want >= 1", v, ok)
	}
	if v, ok := value("granulock_locksrv_timeouts_total"); !ok || v < 1 {
		t.Fatalf("timeouts_total = %v (present %v), want >= 1", v, ok)
	}
	if v, ok := value("granulock_lockmgr_grants_total"); !ok || v < 1 {
		t.Fatalf("lockmgr grants_total = %v (present %v), want >= 1", v, ok)
	}
	// The acquire-wait histogram must have recorded both outcomes.
	var histCount float64
	for _, s := range samples {
		if s.Name == "granulock_locksrv_acquire_wait_ms_count" {
			histCount = s.Value
		}
	}
	if histCount < 2 {
		t.Fatalf("acquire_wait_ms_count = %v, want >= 2", histCount)
	}
}

// TestAdminHealthzAndPprof checks the liveness probe (including its
// draining flip) and that the pprof index responds.
func TestAdminHealthzAndPprof(t *testing.T) {
	srv, _, admin := startTestService(t)

	body, resp := scrape(t, admin.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", resp.StatusCode)
	}
	var health struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("/healthz not JSON: %v\n%s", err, body)
	}
	if health.Status != "ok" || health.Draining {
		t.Fatalf("healthz before drain: %+v", health)
	}

	pprofBody, resp := scrape(t, admin.URL+"/debug/pprof/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", resp.StatusCode)
	}
	if !strings.Contains(pprofBody, "goroutine") {
		t.Fatalf("/debug/pprof/ index missing profiles:\n%s", pprofBody)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	body, _ = scrape(t, admin.URL+"/healthz")
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatal(err)
	}
	if !health.Draining || health.Status != "draining" {
		t.Fatalf("healthz after drain: %+v", health)
	}
}

func TestJournalReplayAndTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grants.log")

	// Fresh epoch: nothing to replay.
	j, sum, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Records != 0 || sum.OutstandingTxns != 0 {
		t.Fatalf("fresh journal summary %+v", sum)
	}
	// Two grants, one release — txn 6 is still holding at the "crash".
	if err := j.Grant(5, []lockmgr.Request{
		{Granule: 1, Mode: lockmgr.ModeExclusive},
		{Granule: 2, Mode: lockmgr.ModeShared},
	}); err != nil {
		t.Fatal(err)
	}
	if err := j.Grant(6, []lockmgr.Request{{Granule: 3, Mode: lockmgr.ModeExclusive}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Release(5); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: replay reports txn 6 outstanding, then truncates.
	j2, sum, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Records != 4 || sum.GrantedGranules != 3 || sum.Releases != 1 {
		t.Fatalf("replay summary %+v", sum)
	}
	if sum.OutstandingTxns != 1 || sum.OutstandingGranules != 1 {
		t.Fatalf("outstanding %+v, want txn 6 with 1 granule", sum)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	// The journal was truncated: a third open replays nothing.
	j3, sum, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if sum.Records != 0 {
		t.Fatalf("post-truncate summary %+v", sum)
	}
}

// TestJournaledServerUnderLoad runs a server over lockd's file-backed
// grant journal with contending clients — 8 sessions, 200
// acquire/release cycles each on one of 16 exclusive granules — then
// reopens the journal: every grant was released, and it holds exactly
// one grant and one release per cycle.
func TestJournaledServerUnderLoad(t *testing.T) {
	const clients, cycles, granules = 8, 200, 16
	path := filepath.Join(t.TempDir(), "grants.log")
	j, _, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := locksrv.NewServer(lis, nil, locksrv.WithJournal(j))
	go srv.Serve()
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := locksrv.DialV2(srv.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < cycles; i++ {
				txn := int64(c*cycles + i + 1)
				reqs := []lockmgr.Request{{Granule: lockmgr.Granule((c*7 + i*3) % granules), Mode: lockmgr.ModeExclusive}}
				if err := cl.AcquireAll(txn, reqs); err != nil {
					errs <- err
					return
				}
				if err := cl.ReleaseAll(txn); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if n := srv.Table().HoldersCount(); n != 0 {
		t.Fatalf("%d holders after the drain", n)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, sum, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if sum.OutstandingTxns != 0 || sum.GrantedGranules != clients*cycles || sum.Releases != clients*cycles || sum.Torn {
		t.Fatalf("replay %+v, want %d grants and %d releases, none outstanding", sum, clients*cycles, clients*cycles)
	}
}

func TestJournalReplayTornTail(t *testing.T) {
	// A torn final grant (the crash ate the acknowledgement) must end
	// the replay cleanly, not fail it.
	path := filepath.Join(t.TempDir(), "grants.log")
	j, _, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Grant(1, []lockmgr.Request{{Granule: 7, Mode: lockmgr.ModeExclusive}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear mid-record: cut the file 10 bytes into the only record.
	if err := os.Truncate(path, int64(wal.LogHeaderSize+10)); err != nil {
		t.Fatal(err)
	}
	_, sum, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Torn || sum.Records != 0 {
		t.Fatalf("torn replay summary %+v", sum)
	}
}
