package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"csrplus/internal/shard"
)

// F64s is a float64 slice that marshals as base64-encoded little-endian
// IEEE-754 bit patterns instead of decimal text. Go's decimal float
// encoding does round-trip exactly, but raw bits are cheaper to encode,
// ~30% smaller, and keep the bitwise-exactness contract independent of
// any decimal formatting subtlety — the scores crossing this wire must
// merge bitwise-identically to the in-process path.
type F64s []float64

// MarshalJSON encodes the slice as a base64 string of LE float64 bits.
func (f F64s) MarshalJSON() ([]byte, error) {
	buf := make([]byte, 8*len(f))
	for i, v := range f {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	return json.Marshal(buf)
}

// UnmarshalJSON decodes a base64 string of LE float64 bits.
func (f *F64s) UnmarshalJSON(b []byte) error {
	var raw []byte
	if err := json.Unmarshal(b, &raw); err != nil {
		return fmt.Errorf("wire: decoding float payload: %w", err)
	}
	if len(raw)%8 != 0 {
		return fmt.Errorf("wire: float payload is %d bytes, not a multiple of 8", len(raw))
	}
	out := make([]float64, len(raw)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	*f = out
	return nil
}

// MetaResponse is GET /shard/meta: the slot's static shape, its current
// generation, whether its factors are a mapped file, and the bound terms
// the router folds into the global truncation bound. Damping rides as
// plain JSON — Go's float64 encoding round-trips exactly, and it is a
// single scalar compared for equality at assembly, not bulk payload.
type MetaResponse struct {
	N          int     `json:"n"`
	Lo         int     `json:"lo"`
	Hi         int     `json:"hi"`
	Rank       int     `json:"rank"`
	Damping    float64 `json:"damping"`
	Generation uint64  `json:"generation"`
	Bytes      int64   `json:"bytes"`
	Stored     int     `json:"rows_stored"`
	Tier       string  `json:"tier"`
	Mapped     bool    `json:"mapped"`
	ZMax       F64s    `json:"zmax"`
	UMax       F64s    `json:"umax"`
	ZErr       F64s    `json:"zerr,omitempty"`
	UErr       F64s    `json:"uerr,omitempty"`
}

func (m MetaResponse) boundTerms() shard.BoundTerms {
	return shard.BoundTerms{ZMax: m.ZMax, UMax: m.UMax, ZErr: m.ZErr, UErr: m.UErr}
}

// URowsRequest is POST /shard/urows: gather the U rows of owned nodes.
type URowsRequest struct {
	Nodes []int `json:"nodes"`
}

// URowsResponse carries the gathered rows, |nodes| x rank row-major, row
// i for Nodes[i].
type URowsResponse struct {
	Generation uint64 `json:"generation"`
	Rows       F64s   `json:"rows"`
}

// QueryRequest is POST /shard/query: the rank-limited partial top-k of
// the worker's owned nodes for a query set. UQ is the router-gathered
// query broadcast, |queries| x rank row-major.
type QueryRequest struct {
	Queries []int `json:"queries"`
	UQ      F64s  `json:"uq"`
	K       int   `json:"k"`
	Rank    int   `json:"rank"`
}

// QueryResponse carries the partial top-k as parallel arrays (global
// node ids plus their raw-bits scores), with the generation that
// answered.
type QueryResponse struct {
	Generation uint64 `json:"generation"`
	Nodes      []int  `json:"nodes"`
	Scores     F64s   `json:"scores"`
}

// ScoresRequest is POST /shard/scores: targeted scores of owned rows
// against the query columns.
type ScoresRequest struct {
	Queries []int `json:"queries"`
	UQ      F64s  `json:"uq"`
	Rows    []int `json:"rows"`
	Rank    int   `json:"rank"`
}

// ScoresResponse carries |rows| x |queries| scores row-major:
// Scores[i*|Q|+j] scores Rows[i] against Queries[j].
type ScoresResponse struct {
	Generation uint64 `json:"generation"`
	Scores     F64s   `json:"scores"`
}

// ReloadResponse is POST /admin/reload: the worker's new serving
// generation and the snapshot generation it loaded.
type ReloadResponse struct {
	Generation  uint64 `json:"generation"`
	SnapshotGen uint64 `json:"snapshot_gen,omitempty"`
	Recovered   bool   `json:"recovered,omitempty"`
}

// ReadyResponse is GET /readyz and /healthz.
type ReadyResponse struct {
	Status     string `json:"status"`
	Shard      int    `json:"shard"`
	Generation uint64 `json:"generation,omitempty"`
}

// ErrorResponse is every non-2xx body.
type ErrorResponse struct {
	Error string `json:"error"`
}
