// Package fleet shards an auto-tuning search across worker processes.
// The coordinator runs the tuner in-process against a table of merged
// per-configuration costs. Before each batch a stock tuner evaluates,
// it announces the batch (tuning.Ask); the coordinator leases the
// configurations the table lacks to `patty worker` instances over
// HTTP, merges their costs, and only then lets the tuner read them —
// producing a tuning.Result that is bit-identical to an uninterrupted
// single-process TuneCtx run.
//
// The determinism argument has two legs:
//
//  1. The objective is a pure function of the assignment (the tuning
//     contract every workload here obeys: the performance model is
//     deterministic and the fault shim is a hash of the canonical
//     assignment key). A cost computed on worker 3 equals the cost the
//     local run would have measured.
//  2. The coordinator runs the *same search algorithm* with the *same
//     inputs*: algo, dims, start, budget, and per-assignment costs,
//     read one by one in the tuner's own order. Which worker produced
//     a cost — or whether a shard was evaluated twice because of a
//     steal, a lease expiry or a worker death — cannot change the
//     value, so the Result (Best, BestCost, Evaluations, Trace) is
//     identical for 1, 2 or N workers.
//
// A batch holds exactly what the tuner goes on to evaluate, so the
// fleet measures nothing the search does not use and never enumerates
// a space. A byzantine correction of a cost the running search already
// read discards that run and reruns the tuner (see Tune).
//
// Fault tolerance: a shard lease is an in-flight HTTP dispatch with a
// TTL'd context. Worker death surfaces as a transport error, a hang as
// the TTL expiry — both return the shard to the pending queue for
// re-dispatch. Idle workers steal: they duplicate-dispatch the oldest
// slow in-flight shard (first result wins, the loser's evaluations are
// deduped by assignment key). A worker that fails several dispatches
// in a row is benched for good. The coordinator journals every
// merged evaluation into the same checkpoint format `patty tune
// -checkpoint` uses, so a crashed coordinator resumes by re-adopting
// the merged prefix and asking the workers only for the remainder —
// and a fleet checkpoint is even resumable by a plain local search.
package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strings"

	"patty/internal/tuning"
)

// ShardRequest is the body of POST /shards on a worker: one leased
// shard of the configuration space, plus the opaque objective spec the
// worker's NewObjective interprets.
type ShardRequest struct {
	// Search is the owning search's canonical identity
	// (tuning.SearchMeta.Signature); the worker's content-addressed
	// fallback key when no Program hash is supplied, so two searches
	// never share cached costs by accident.
	Search string `json:"search"`
	// Shard is the coordinator-assigned shard id (diagnostic).
	Shard int `json:"shard"`
	// Spec is the opaque objective specification, interpreted by the
	// worker's NewObjective hook.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Program is the canonical content address of the workload
	// (evalcache.ProgramHash / SpecHash); with Seed it lets a worker
	// share its persistent evaluation store across searches, tenants
	// and restarts. Empty when the coordinator has no evaluation store
	// — the worker then falls back to "search:"+Search, which never
	// matches a content address.
	Program string `json:"program,omitempty"`
	// Seed is the measurement seed completing the cache address.
	Seed int64 `json:"seed,omitempty"`
	// Configs are the assignments to evaluate.
	Configs []map[string]int `json:"configs"`
}

// ShardResponse is the worker's answer: one EvalRecord per requested
// configuration, in request order. Faulted evaluations carry the flag
// instead of a non-JSON-encodable +Inf.
type ShardResponse struct {
	Shard int                 `json:"shard"`
	Evals []tuning.EvalRecord `json:"evals"`
}

// MaxBodyBytes is the default POST body cap of the hardened intakes
// (`patty serve` and `patty worker`), and the cap on a shard response
// the coordinator reads.
const MaxBodyBytes = 1 << 20

// maxShardConfigs caps the configurations of one shard, so that its
// request and its response fit in MaxBodyBytes as long as one indented
// evaluation record encodes in under 512 bytes (`patty tune`'s records
// take about 150).
const maxShardConfigs = MaxBodyBytes / 512

// WriteJSON writes v as indented JSON with the given status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteError writes the error envelope every non-2xx JSON answer uses.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, map[string]string{"error": err.Error()})
}

// DecodeJSON enforces the hardened intake contract shared by `patty
// serve` and `patty worker`: a non-JSON Content-Type answers 415, the
// body is capped at maxBody bytes (413 past the cap), a declared
// Content-Length that disagrees with the bytes actually delivered
// answers 400 (a truncated or padded wire must not half-parse into a
// plausible request), and malformed JSON answers 400. Returns false
// when an error response was already written. An absent Content-Type
// is treated as JSON so plain tooling keeps working; anything
// explicitly different is refused.
func DecodeJSON(w http.ResponseWriter, r *http.Request, maxBody int64, v any) bool {
	if ct := r.Header.Get("Content-Type"); ct != "" {
		mt, _, err := mime.ParseMediaType(ct)
		if err != nil || (mt != "application/json" && !strings.HasSuffix(mt, "+json")) {
			WriteError(w, http.StatusUnsupportedMediaType,
				fmt.Errorf("content type %q not supported; send application/json", ct))
			return false
		}
	}
	if maxBody <= 0 {
		maxBody = MaxBodyBytes
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	data, err := io.ReadAll(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			WriteError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	if r.ContentLength >= 0 && r.ContentLength != int64(len(data)) {
		WriteError(w, http.StatusBadRequest,
			fmt.Errorf("content-length %d disagrees with body length %d", r.ContentLength, len(data)))
		return false
	}
	if err := json.Unmarshal(data, v); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}
