package api

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parcluster/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite the NDJSON golden file")

// goldenStream writes one of every NDJSON record type with deliberately
// awkward payloads: HTML-escapable graph names, exponent-notation floats,
// nil-vs-empty slices, the optional truncated flag, and a non-ASCII error
// message.
func goldenStream(w *bytes.Buffer) error {
	if err := WriteClusterStreamHeader(w, `toy<graph>&"demo"`, 192, 1536, 7, "prnibble", 3); err != nil {
		return err
	}
	r1 := ClusterResult{
		Seeds:       []uint32{0},
		Members:     []uint32{0, 1, 2, 11},
		Size:        4,
		Conductance: 0.0625,
		Volume:      48,
		Cut:         3,
		Stats:       core.Stats{Pushes: 17, Iterations: 4, EdgesTouched: 96},
	}
	if err := WriteClusterResultLine(w, &r1); err != nil {
		return err
	}
	r2 := ClusterResult{
		Seeds:       []uint32{4294967295},
		Members:     []uint32{},
		Size:        0,
		Truncated:   true,
		Conductance: 1e-07, // exponent form, encoding/json's e-7 spelling
		Cached:      true,
	}
	if err := WriteClusterResultLine(w, &r2); err != nil {
		return err
	}
	agg := Aggregate{
		Queries:         3,
		CacheHits:       1,
		BestConductance: 0.0625,
		BestSeeds:       []uint32{0},
		MeanSize:        1.3333333333333333,
		TotalPushes:     17,
		TotalEdges:      96,
		ElapsedMS:       12.5,
	}
	if err := WriteClusterStreamTrailer(w, &agg); err != nil {
		return err
	}
	return WriteStreamError(w, `deadline exceeded — “надмежно”`)
}

// TestNDJSONGoldenFraming pins the framing byte for byte against the
// committed golden file: every record on its own line, result lines in the
// format of a ClusterResponse's results array, the trailing error record's
// shape. Run
// with -update to regenerate after an intentional format change.
func TestNDJSONGoldenFraming(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenStream(&buf); err != nil {
		t.Fatalf("encoding golden stream: %v", err)
	}
	path := filepath.Join("testdata", "ndjson.golden")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("NDJSON framing drifted from golden file\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
	// Structural guards independent of the exact bytes: every line is a
	// standalone JSON object and the stream's terminal error record has
	// exactly the {"error": string} shape.
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("golden stream has %d lines, want 5", len(lines))
	}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d is not standalone JSON: %v\n%s", i, err, line)
		}
	}
	var errRec struct {
		Error string `json:"error"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&errRec); err != nil || errRec.Error == "" {
		t.Fatalf("terminal error record malformed: %v\n%s", err, lines[len(lines)-1])
	}
}

// TestStreamHeaderAndTrailerShape checks the header and trailer records
// decode into the documented key sets.
func TestStreamHeaderAndTrailerShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteClusterStreamHeader(&buf, "g", 10, 20, 4, "hkpr", 3); err != nil {
		t.Fatal(err)
	}
	var hdr struct {
		Graph    string `json:"graph"`
		Vertices int    `json:"vertices"`
		Edges    uint64 `json:"edges"`
		Epoch    uint64 `json:"epoch"`
		Algo     string `json:"algo"`
		Results  int    `json:"results"`
	}
	dec := json.NewDecoder(&buf)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&hdr); err != nil {
		t.Fatalf("header: %v", err)
	}
	if hdr.Graph != "g" || hdr.Vertices != 10 || hdr.Edges != 20 || hdr.Epoch != 4 || hdr.Algo != "hkpr" || hdr.Results != 3 {
		t.Fatalf("header = %+v", hdr)
	}

	buf.Reset()
	agg := Aggregate{Queries: 3, BestConductance: 0.25, MeanSize: 2}
	if err := WriteClusterStreamTrailer(&buf, &agg); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Aggregate Aggregate `json:"aggregate"`
	}
	dec = json.NewDecoder(&buf)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tr); err != nil {
		t.Fatalf("trailer: %v", err)
	}
	if tr.Aggregate.Queries != 3 || tr.Aggregate.BestConductance != 0.25 {
		t.Fatalf("trailer = %+v", tr)
	}
}
