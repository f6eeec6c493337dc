// Command seqcli answers example-based queries against a dataset file
// (CSV or the library's binary format, sniffed automatically).
//
// The example is given as a semicolon-separated list of "x,y,category"
// triples; attributes for each example dimension are taken from the most
// attribute-typical object of that category (or can be supplied inline as
// "x,y,category,a0,a1,..."). For instance:
//
//	seqcli -data gaode.csv -k 5 -beta 1.5 -algo lora \
//	       -example "10,20,gaode-cat-0003;12,21,gaode-cat-0007;11,19,gaode-cat-0001"
//
// Add -map for an ASCII rendering, -stats for work counters, -geojson to
// export the answer for a map UI, or -workload to run a saved query set
// in batch.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"spatialseq/internal/core"
	"spatialseq/internal/dataset"
	"spatialseq/internal/export"
	"spatialseq/internal/geo"
	"spatialseq/internal/query"
	"spatialseq/internal/textmap"
	"spatialseq/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "seqcli:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("seqcli", flag.ContinueOnError)
	dataPath := fs.String("data", "", "dataset path, CSV or binary (required)")
	exampleSpec := fs.String("example", "", "example tuple: x,y,category[,attr...];... (required unless -workload)")
	workloadPath := fs.String("workload", "", "run a saved query set (JSON Lines) instead of -example")
	k := fs.Int("k", 5, "number of results")
	alpha := fs.Float64("alpha", 0.5, "similarity weight alpha")
	beta := fs.Float64("beta", 1.5, "norm constraint beta (0 = SEQ, unconstrained)")
	gridD := fs.Int("d", 5, "LORA grid resolution D")
	xi := fs.Int("xi", 10, "LORA sampling budget xi (<=0 disables sampling)")
	algoName := fs.String("algo", "auto", "algorithm: auto, brute, dfs-prune, hsp, lora")
	timeout := fs.Duration("timeout", time.Minute, "query timeout")
	showMap := fs.Bool("map", false, "render the example and results on an ASCII map")
	showStats := fs.Bool("stats", false, "print per-search work counters")
	geojsonPath := fs.String("geojson", "", "also write the example and results as GeoJSON to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataPath == "" || (*exampleSpec == "" && *workloadPath == "") {
		return fmt.Errorf("-data and one of -example / -workload are required")
	}
	if *exampleSpec != "" && *workloadPath != "" {
		return fmt.Errorf("-example and -workload are mutually exclusive")
	}
	ds, err := dataset.ReadAnyFile(*dataPath)
	if err != nil {
		return err
	}
	algo, err := core.ParseAlgorithm(*algoName)
	if err != nil {
		return err
	}
	if *workloadPath != "" {
		return runWorkload(out, ds, *workloadPath, algo, *timeout)
	}
	ex, err := parseExample(ds, *exampleSpec)
	if err != nil {
		return err
	}
	q := &query.Query{
		Variant: query.CSEQ,
		Example: *ex,
		Params:  query.Params{K: *k, Alpha: *alpha, Beta: *beta, GridD: *gridD, Xi: *xi},
	}
	if *beta == 0 {
		q.Variant = query.SEQ
		q.Params.Beta = 1
	}
	eng := core.NewEngine(ds)
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	res, err := eng.Search(ctx, q, algo, core.Options{CollectStats: *showStats})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s answered %s in %s; %d results\n",
		res.Algorithm, q.Variant, res.Elapsed.Round(time.Microsecond), len(res.Tuples))
	for rank, t := range res.Tuples {
		fmt.Fprintf(out, "#%d  sim=%.6f\n", rank+1, t.Sim)
		for d, pos := range t.Positions {
			o := ds.Object(int(pos))
			fmt.Fprintf(out, "    [%d] %s  %s  cat=%s\n", d, o.Name, o.Loc, ds.CategoryName(o.Category))
		}
	}
	if *showStats {
		st := res.Stats
		fmt.Fprintf(out, "work: %d subspaces (%d skipped, %d pruned), %d candidates, %d prefixes pruned, %d tuples scored, %d offered\n",
			st.Subspaces, st.SubspacesSkipped, st.SubspacesPruned, st.Candidates, st.PrunedPrefixes, st.Tuples, st.Offered)
		if st.CellTuples > 0 {
			fmt.Fprintf(out, "      %d cell tuples (%d cell prefixes pruned), %d rank-graph pops, %d points sampled out\n",
				st.CellTuples, st.PrunedCellPrefixes, st.RankPops, st.SampledOut)
		}
	}
	if *showMap {
		if err := renderMap(out, ds, q, res); err != nil {
			return err
		}
	}
	if *geojsonPath != "" {
		f, err := os.Create(*geojsonPath)
		if err != nil {
			return err
		}
		if err := export.Results(f, ds, q, res); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote GeoJSON to %s\n", *geojsonPath)
	}
	return nil
}

// runWorkload answers every query of a saved query set and prints the
// per-query and aggregate costs.
func runWorkload(out io.Writer, ds *dataset.Dataset, path string, algo core.Algorithm, timeout time.Duration) error {
	queries, err := workload.LoadFile(path, ds)
	if err != nil {
		return err
	}
	eng := core.NewEngine(ds)
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var total time.Duration
	var simSum float64
	var simN int
	for i, q := range queries {
		res, err := eng.Search(ctx, q, algo, core.Options{})
		if err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
		total += res.Elapsed
		var s float64
		for _, t := range res.Tuples {
			s += t.Sim
			simN++
		}
		simSum += s
		fmt.Fprintf(out, "query %3d: %s, %d results, %s\n",
			i, q.Variant, len(res.Tuples), res.Elapsed.Round(time.Microsecond))
	}
	if n := len(queries); n > 0 {
		fmt.Fprintf(out, "ran %d queries with %s: mean %s/query", n, algo, (total / time.Duration(n)).Round(time.Microsecond))
		if simN > 0 {
			fmt.Fprintf(out, ", avg similarity %.4f", simSum/float64(simN))
		}
		fmt.Fprintln(out)
	}
	return nil
}

// renderMap draws the example (*) and each result tuple (1, 2, ...) on an
// ASCII viewport fitted around them.
func renderMap(out io.Writer, ds *dataset.Dataset, q *query.Query, res *core.Result) error {
	layers := []textmap.Layer{
		{Label: "example", Rune: '*', Points: q.Example.Locations},
	}
	for rank, t := range res.Tuples {
		if rank >= 9 {
			break // single-rune markers
		}
		pts := make([]geo.Point, len(t.Positions))
		for d, pos := range t.Positions {
			pts[d] = ds.Object(int(pos)).Loc
		}
		layers = append(layers, textmap.Layer{
			Label:  fmt.Sprintf("result #%d (sim %.4f)", rank+1, t.Sim),
			Rune:   rune('1' + rank),
			Points: pts,
		})
	}
	view := textmap.FitView(layers)
	canvas, err := textmap.New(view, 72, 24)
	if err != nil {
		return err
	}
	fmt.Fprintln(out)
	fmt.Fprint(out, canvas.Render(layers))
	return nil
}

// parseExample builds a query example from the CLI spec. Dimensions without
// inline attributes inherit the attribute vector of the category's most
// central object (closest to the category's attribute centroid).
func parseExample(ds *dataset.Dataset, spec string) (*query.Example, error) {
	parts := strings.Split(spec, ";")
	if len(parts) < 2 {
		return nil, fmt.Errorf("example needs at least 2 objects, got %d", len(parts))
	}
	ex := &query.Example{}
	for i, part := range parts {
		fields := strings.Split(strings.TrimSpace(part), ",")
		if len(fields) < 3 {
			return nil, fmt.Errorf("example object %d: want x,y,category[,attrs...], got %q", i, part)
		}
		x, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("example object %d: bad x %q", i, fields[0])
		}
		y, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("example object %d: bad y %q", i, fields[1])
		}
		cat, ok := ds.CategoryByName(fields[2])
		if !ok {
			return nil, fmt.Errorf("example object %d: unknown category %q", i, fields[2])
		}
		var attr []float64
		if len(fields) > 3 {
			for _, f := range fields[3:] {
				v, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return nil, fmt.Errorf("example object %d: bad attribute %q", i, f)
				}
				attr = append(attr, v)
			}
			if len(attr) != ds.AttrDim() {
				return nil, fmt.Errorf("example object %d: %d attributes, dataset wants %d", i, len(attr), ds.AttrDim())
			}
		} else {
			attr = categoryCentroid(ds, cat)
			if attr == nil {
				return nil, fmt.Errorf("example object %d: category %q has no objects to infer attributes from", i, fields[2])
			}
		}
		ex.Categories = append(ex.Categories, cat)
		ex.Locations = append(ex.Locations, geo.Point{X: x, Y: y})
		ex.Attrs = append(ex.Attrs, attr)
	}
	return ex, nil
}

func categoryCentroid(ds *dataset.Dataset, cat dataset.CategoryID) []float64 {
	objs := ds.CategoryObjects(cat)
	if len(objs) == 0 {
		return nil
	}
	centroid := make([]float64, ds.AttrDim())
	for _, pos := range objs {
		for j, a := range ds.Object(int(pos)).Attr {
			centroid[j] += a
		}
	}
	for j := range centroid {
		centroid[j] /= float64(len(objs))
	}
	return centroid
}
