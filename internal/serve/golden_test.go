package serve_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"gem5aladdin/internal/obs"
	"gem5aladdin/internal/serve"
)

// goldenBodies are TestRequestGridGolden's requests in wire form, in its
// order, then two DMA grids whose watchdog aborts some points (100 us of
// virtual time: three evaluated, six aborted) or all of them (20 us: no
// EDP optimum). Each is sent for kernel spmv-crs.
var goldenBodies = []string{
	`{}`,
	`{"mem":"isolated","full":true}`,
	`{"mem":"cache"}`,
	`{"mem":"cache","full":true,"bus_bits":64}`,
	`{"mem":"dma","lanes":[2,8],"partitions":[4,1,4]}`,
	`{"mem":"cache","lanes":[1,2],"cache_kb":[2,64],"cache_lines":[16,64],"cache_ports":[2],"cache_assoc":[1,3,8]}`,
	`{"mem":"cache","full":true,"cache_kb":[4],"cache_ports":[8]}`,
	`{"mem":"cache","partitions":[2]}`,
	`{"mem":"dma","cache_kb":[64],"cache_assoc":[3]}`,
	`{"mem":"dma","fabric":["mesh","bus"],"mesh_dim":3}`,
	`{"mem":"cache","fabric":["xbar"],"burst_len":8}`,
	`{"mem":"isolated","full":true,"fabric":["bus","crossbar","mesh"]}`,
	`{"fabric":["bus","bus"]}`,
	`{"mem":"cache","faults":{"seed":7,"bus_nack_prob":0.2,"bus_retry_limit":6,"bus_backoff_ns":20,"dma_timeout_ns":5000,"dma_retries":2},"watchdog_ticks":1000000000}`,

	`{"search":{"seed":1},"mem":"telepathy"}`,
	`{"mem":"telepathy","bus_bits":12}`,
	`{"fabric":["ring"]}`,
	`{"bus_bits":12,"fabric":["ring"]}`,
	`{"fabric":["mesh"],"mesh_dim":99}`,
	`{"mem":"cache","burst_len":-1}`,
	`{"faults":{"seed":1,"bus_nack_prob":1.5}}`,
	`{"partitions":[0]}`,
	`{"mem":"dma","partitions":[0,4]}`,
	`{"mem":"isolated","lanes":[4,0],"partitions":[0,1]}`,
	`{"lanes":[0],"fabric":["crossbar","mesh"]}`,
	`{"mem":"cache","cache_assoc":[3]}`,

	`{"mem":"dma","watchdog_ticks":100000000}`,
	`{"mem":"dma","watchdog_ticks":20000000}`,
}

// Run-specific values the golden masks: a sweep's elapsed time and trace
// ID, and a job's ID.
var (
	elapsedField = regexp.MustCompile(`"elapsed_ms": [^,\n]*`)
	traceField   = regexp.MustCompile(`"trace_id": "[^"]*"`)
	jobIDField   = regexp.MustCompile(`"job_id": "[^"]*"`)
)

// TestServeResponseGolden pins what the service answers, byte for byte,
// over goldenBodies on one traced server: each request's /sweep status,
// Content-Type and body, with include_space off and then on, and its
// POST /jobs status, Content-Type and acknowledgement, then the job's whole
// NDJSON stream. The requests run in order on one server, so each
// response's cached_points is part of the pin too. The digest was taken
// before /sweep ran as an inline grid job; never edit it to make a
// refactor pass.
func TestServeResponseGolden(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2, Spans: obs.NewSpanTracer(io.Discard, 64)})
	h := sha256.New()
	for i, raw := range goldenBodies {
		var req serve.SweepRequest
		dec := json.NewDecoder(strings.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		req.Kernel = "spmv-crs"
		for _, space := range []bool{false, true} {
			req.IncludeSpace = space
			resp, body := goldenPost(t, ts.URL+"/sweep", req)
			body = elapsedField.ReplaceAll(body, []byte(`"elapsed_ms": 0`))
			body = traceField.ReplaceAll(body, []byte(`"trace_id": ""`))
			goldenRecord(h, fmt.Sprintf("%d sweep space=%t", i, space), resp, body)
		}
		req.IncludeSpace = false
		resp, body := goldenPost(t, ts.URL+"/jobs", req)
		goldenRecord(h, fmt.Sprintf("%d job", i), resp, jobIDField.ReplaceAll(body, []byte(`"job_id": ""`)))
		if resp.StatusCode != http.StatusAccepted {
			continue
		}
		var ack struct {
			JobID string `json:"job_id"`
		}
		if err := json.Unmarshal(body, &ack); err != nil {
			t.Fatalf("request %d: job ack: %v\n%s", i, err, body)
		}
		res, err := http.Get(ts.URL + "/jobs/" + ack.JobID + "/results")
		if err != nil {
			t.Fatal(err)
		}
		stream, err := io.ReadAll(res.Body)
		res.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		goldenRecord(h, fmt.Sprintf("%d stream", i), res, stream)
	}
	const want = "9abb27d4382110fbfc237bd91b0e0f4c92f92bbc7651dcd8c2c2a078f0bcd6b2"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("response digest %s, want %s", got, want)
	}
}

func goldenPost(t *testing.T, url string, req serve.SweepRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// goldenRecord hashes one response under its label, framed by length so no
// two sequences of responses hash alike.
func goldenRecord(h hash.Hash, label string, resp *http.Response, body []byte) {
	fmt.Fprintf(h, "%s %d %q %d\n", label, resp.StatusCode, resp.Header.Get("Content-Type"), len(body))
	h.Write(body)
}
