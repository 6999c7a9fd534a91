// ndjson.go implements the NDJSON (newline-delimited JSON) framing of the
// streaming batch path: POST /v1/cluster/stream and the Accept:
// application/x-ndjson negotiation on POST /v1/cluster. Where POST
// /v1/cluster writes one JSON document holding every result, the NDJSON
// framing writes one JSON record per line, flushed as each batch unit
// *completes* — a 10^4-seed batch delivers its first cluster after the
// first diffusion, not after the last.
//
// Framing (each record is a single line, '\n'-terminated):
//
//	{"graph":...,"vertices":...,"edges":...,"epoch":...,"algo":...,"results":K}   header
//	{"seeds":[...],"members":[...],...}                                one per completed unit
//	{"aggregate":{...}}                                                trailer (success)
//	{"error":"..."}                                                    terminal error record
//
// Every record is one encoding/json Encode call, so a result line is
// byte-identical to the same element of a ClusterResponse's "results"
// array (the golden file in testdata/ndjson.golden pins the framing) and a
// client can parse either framing with one record decoder. Record types
// are distinguished by their key sets: result records carry "seeds", the
// header carries "results", the trailer "aggregate", the error record
// "error". A stream that ends without a trailer or error record was cut by
// a disconnect and must be treated as truncated.
package api

import (
	"encoding/json"
	"io"
)

// ErrorResponse is the body of every error answer of the service, and the
// terminal error record of an NDJSON stream.
type ErrorResponse struct {
	Error string `json:"error"`
}

// streamHeader is the NDJSON header record.
type streamHeader struct {
	Graph    string `json:"graph"`
	Vertices int    `json:"vertices"`
	Edges    uint64 `json:"edges"`
	Epoch    uint64 `json:"epoch"`
	Algo     string `json:"algo"`
	Results  int    `json:"results"`
}

// streamTrailer is the NDJSON success trailer record.
type streamTrailer struct {
	Aggregate *Aggregate `json:"aggregate"`
}

// WriteClusterStreamHeader writes the NDJSON header record announcing the
// batch: the graph's identity (including the pinned epoch every unit of the
// stream runs at) and the number of result records (units) the stream will
// carry on success.
func WriteClusterStreamHeader(w io.Writer, graph string, vertices int, edges uint64, epoch uint64, algo string, units int) error {
	return json.NewEncoder(w).Encode(streamHeader{graph, vertices, edges, epoch, algo, units})
}

// WriteClusterResultLine writes one completed unit as a single NDJSON
// record.
func WriteClusterResultLine(w io.Writer, r *ClusterResult) error {
	return json.NewEncoder(w).Encode(r)
}

// WriteClusterStreamTrailer writes the terminal success record carrying the
// batch aggregate.
func WriteClusterStreamTrailer(w io.Writer, a *Aggregate) error {
	return json.NewEncoder(w).Encode(streamTrailer{a})
}

// WriteStreamError writes the terminal error record of an NDJSON stream: a
// batch that fails after the header (deadline expired mid-batch, a unit
// error) still ends with a well-formed line telling the client why, instead
// of a silently truncated stream.
func WriteStreamError(w io.Writer, msg string) error {
	return json.NewEncoder(w).Encode(ErrorResponse{Error: msg})
}
