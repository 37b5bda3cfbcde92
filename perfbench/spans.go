package main

import (
	"time"

	"samplednn/internal/obs/trace"
)

// spanSums totals the spans the program already records, by the names
// its call sites use: nn forward/backward/infer per layer, lsh
// query/rehash/rebuild, and amm grad-w/grad-prev. (The amm product
// span belongs to MC's forward approximation, which the paper's
// backward-only MC configuration never runs.)
type spanSums struct {
	forward, backward [hiddenLayers + 1]time.Duration
	infer             time.Duration
	inferLayer        [hiddenLayers + 1]time.Duration
	lshQuery          time.Duration
	lshRehash         time.Duration
	lshRebuild        time.Duration
	lshQueries        int64
	ammGradW          time.Duration
	ammGradPrev       time.Duration
}

func sumSpans(t *trace.Tracer) spanSums {
	var s spanSums
	for _, e := range t.Export() {
		if e.Ph != "X" {
			continue
		}
		d := time.Duration(e.Dur * float64(time.Microsecond))
		layer := -1
		if v, ok := e.Args["layer"].(int64); ok && e.Name == "layer" {
			layer = int(v)
		}
		switch e.Cat + "/" + e.Name {
		case "forward/layer":
			if layer >= 0 && layer < len(s.forward) {
				s.forward[layer] += d
			}
		case "backward/layer":
			if layer >= 0 && layer < len(s.backward) {
				s.backward[layer] += d
			}
		case "infer/layer":
			s.infer += d
			if layer >= 0 && layer < len(s.inferLayer) {
				s.inferLayer[layer] += d
			}
		case "lsh/query":
			s.lshQuery += d
			s.lshQueries++
		case "lsh/rehash":
			s.lshRehash += d
		case "lsh/rebuild":
			s.lshRebuild += d
		case "amm/grad-w":
			s.ammGradW += d
		case "amm/grad-prev":
			s.ammGradPrev += d
		}
	}
	return s
}
