package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/rng"
)

// A request's frame buffer is reused frame to frame, so every reader of a
// frame's values — each of three replicas' folds and the journal — must
// be done with them before the next frame is decoded, through 429
// rejections, Ingest-Id skips and a delete of another accumulator
// mid-stream. A reader that kept the buffer would fold another frame's
// values into some replica, so the certified total (all three replicas
// byte-identical) and the replayed journal must both equal the serial
// oracle bit for bit.
func TestFramePoolLifecycleUnderRejectsSkipsAndDelete(t *testing.T) {
	jpath, lpath, _ := auditPaths(t)
	s := New(Config{Shards: 1, Replicas: 3, Quorum: 2, EnqueueWait: time.Millisecond})
	if err := s.EnableAudit(jpath, lpath); err != nil {
		t.Fatal(err)
	}
	mux := s.Handler()
	// Once the held shard below is released, every third POST into
	// "keep" is accepted in full and then severed before its response, so
	// the client resends that body under the same Ingest-Id and the server
	// decodes and skips all of it.
	var posts, busy, severed atomic.Int32
	var parked atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/acc/keep/add" {
			if !parked.Load() && posts.Add(1)%3 == 0 {
				severed.Add(1)
				mux.ServeHTTP(killConn{w}, r)
				return
			}
			w = statusSpy{w, &busy}
		}
		mux.ServeHTTP(w, r)
	}))
	// Hold the only shard of "keep"'s admission replica (taken below): its
	// frames are refused with 429 until release.
	var unpark sync.Once
	unshard := func() {}
	release := func() {
		unpark.Do(func() {
			unshard()
			parked.Store(false)
		})
	}
	var wg sync.WaitGroup
	defer func() {
		release()
		wg.Wait()
		ts.Close()
		s.Close()
		if err := s.CloseAudit(); err != nil {
			t.Error(err)
		}
	}()

	c := &Client{Base: ts.URL, HTTP: ts.Client(), FrameLen: 64, ReqFrames: 8, RetryWait: time.Millisecond}
	for _, name := range []string{"keep", "doomed"} {
		if _, err := c.Create(name, core.Params{}); err != nil {
			t.Fatal(err)
		}
	}
	parked.Store(true)
	unshard = holdAdmissionShard(s.Lookup("keep"))

	keep := rng.UniformSet(rng.New(71), 6000, -1, 1)
	var keepStats StreamStats
	var keepErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		keepStats, keepErr = c.Stream("keep", keep)
	}()
	go func() {
		defer wg.Done()
		dc := &Client{Base: ts.URL, HTTP: ts.Client(), FrameLen: 64, ReqFrames: 8, RetryWait: time.Millisecond, MaxRetries: 3}
		_, _ = dc.Stream("doomed", rng.UniformSet(rng.New(72), 6000, -1, 1)) // cut short by the delete
	}()
	for deadline := time.Now().Add(10 * time.Second); busy.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no 429 while the admission shard was held")
		}
		time.Sleep(time.Millisecond)
	}
	if !s.Delete("doomed") {
		t.Fatal("doomed vanished before its delete")
	}
	release()
	wg.Wait()

	if keepErr != nil {
		t.Fatal(keepErr)
	}
	if keepStats.Values != len(keep) || keepStats.Retries == 0 {
		t.Fatalf("keep stream stats %+v, want %d values and some retries", keepStats, len(keep))
	}
	if severed.Load() == 0 {
		t.Fatal("no POST was severed, so no Ingest-Id skip ran")
	}
	a := s.Lookup("keep")
	info, err := a.Certified()
	if err != nil {
		t.Fatal(err)
	}
	want := oracleHPText(t, core.Params384, keep)
	if info.HP != want || info.Adds != uint64(len(keep)) {
		t.Fatalf("keep certified %s (%d adds)\n  oracle %s (%d adds)", info.HP, info.Adds, want, len(keep))
	}
	for _, sh := range info.Cert.Shares {
		if sh.Digest != info.Cert.Digest {
			t.Fatalf("replica %d disagrees with the certificate", sh.Replica)
		}
	}

	// The journal holds every accepted frame's values as they were read
	// inside ingest: replaying it reproduces the attested total.
	if _, err := s.AuditRecord("check"); err != nil {
		t.Fatal(err)
	}
	logData, err := os.ReadFile(lpath)
	if err != nil {
		t.Fatal(err)
	}
	records, err := audit.ReadLog(logData)
	if err != nil {
		t.Fatal(err)
	}
	jf, err := os.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	res, err := audit.Verify(records, audit.NewJournalReader(jf))
	if err != nil {
		t.Fatalf("journal replay: %v", err)
	}
	fe, ok := res.Final["keep"]
	if !ok {
		t.Fatal("no attested entry for keep")
	}
	var fh core.HP
	if err := fh.UnmarshalBinary(fe.Env); err != nil {
		t.Fatal(err)
	}
	if txt, err := fh.MarshalText(); err != nil || string(txt) != want {
		t.Fatalf("replayed keep total %s, oracle %s (%v)", txt, want, err)
	}
}

// statusSpy counts the 429 responses written through it.
type statusSpy struct {
	http.ResponseWriter
	busy *atomic.Int32
}

func (s statusSpy) WriteHeader(code int) {
	if code == http.StatusTooManyRequests {
		s.busy.Add(1)
	}
	s.ResponseWriter.WriteHeader(code)
}
