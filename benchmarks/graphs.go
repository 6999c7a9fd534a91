package main

import (
	"os"
	"path/filepath"
	"time"

	"parcluster"
)

// graphFiles is the generated input of one run: the soc-LJ stand-in on the
// heap (the oracle reads it) and the one file the program under test opens.
type graphFiles struct {
	g     *parcluster.Graph
	path  string // .lgz for lgc-serve, .bin for the library child
	genS  float64
	packS float64
}

// buildGraph generates the stand-in (its recipe seed is fixed: --seed drives
// the requests, not the graph) and writes it into dir in the format ext
// names.
func buildGraph(e *env, n int, dir, ext string) (graphFiles, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return graphFiles{}, err
	}
	start := time.Now()
	g, err := parcluster.Generate("community", socLJ(n))
	if err != nil {
		return graphFiles{}, err
	}
	gf := graphFiles{g: g, path: filepath.Join(dir, "soc-LJ"+ext), genS: time.Since(start).Seconds()}
	start = time.Now()
	if ext == ".lgz" {
		err = parcluster.SaveCompressed(e.procs, gf.path, g)
	} else {
		err = parcluster.SaveFile(gf.path, g)
	}
	gf.packS = time.Since(start).Seconds()
	return gf, err
}
