package main

import (
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"spatialseq/internal/dataset"
	"spatialseq/internal/export"
	"spatialseq/internal/geo"
	"spatialseq/internal/query"
	"spatialseq/internal/synth"
	"spatialseq/internal/workload"
)

func writeTestData(t *testing.T) string {
	t.Helper()
	ds, err := synth.Generate(synth.GaodeLike(500, 1))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ds.csv")
	if err := dataset.WriteFile(path, ds); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseExample(t *testing.T) {
	path := writeTestData(t)
	ds, err := dataset.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	catA := ds.CategoryName(ds.Object(0).Category)
	catB := ds.CategoryName(ds.Object(1).Category)

	ex, err := parseExample(ds, "10,20,"+catA+";30,40,"+catB)
	if err != nil {
		t.Fatal(err)
	}
	if ex.M() != 2 {
		t.Fatalf("M = %d", ex.M())
	}
	if ex.Locations[0] != (geo.Point{X: 10, Y: 20}) {
		t.Errorf("location[0] = %v", ex.Locations[0])
	}
	if len(ex.Attrs[0]) != ds.AttrDim() {
		t.Errorf("inferred attrs have %d dims", len(ex.Attrs[0]))
	}

	// inline attributes
	inline := "1,2," + catA + ",0.1,0.2,0.3,0.4,0.5,0.6;3,4," + catB
	ex2, err := parseExample(ds, inline)
	if err != nil {
		t.Fatal(err)
	}
	if ex2.Attrs[0][0] != 0.1 || ex2.Attrs[0][5] != 0.6 {
		t.Errorf("inline attrs = %v", ex2.Attrs[0])
	}
}

func TestParseExampleErrors(t *testing.T) {
	path := writeTestData(t)
	ds, err := dataset.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	catA := ds.CategoryName(ds.Object(0).Category)
	cases := []string{
		"1,2," + catA,                      // only one object
		"1,2",                              // missing category
		"x,2," + catA + ";3,4," + catA,     // bad x
		"1,2,unknown-cat;3,4," + catA,      // unknown category
		"1,2," + catA + ",0.5;3,4," + catA, // wrong attr count
	}
	for i, spec := range cases {
		if _, err := parseExample(ds, spec); err == nil {
			t.Errorf("case %d (%q) should fail", i, spec)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	path := writeTestData(t)
	ds, err := dataset.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	o1, o2 := ds.Object(0), ds.Object(1)
	spec := fmtPoint(o1.Loc, ds.CategoryName(o1.Category)) + ";" + fmtPoint(o2.Loc, ds.CategoryName(o2.Category))
	if err := run([]string{"-data", path, "-example", spec, "-k", "3", "-algo", "hsp"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	// SEQ mode via beta=0
	if err := run([]string{"-data", path, "-example", spec, "-beta", "0", "-algo", "lora"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithGeoJSON(t *testing.T) {
	path := writeTestData(t)
	ds, err := dataset.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	o1, o2 := ds.Object(0), ds.Object(1)
	spec := fmtPoint(o1.Loc, ds.CategoryName(o1.Category)) + ";" + fmtPoint(o2.Loc, ds.CategoryName(o2.Category))
	gj := filepath.Join(t.TempDir(), "out.geojson")
	if err := run([]string{"-data", path, "-example", spec, "-geojson", gj, "-algo", "hsp"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(gj)
	if err != nil {
		t.Fatal(err)
	}
	n, err := export.Validate(data)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("GeoJSON export is empty")
	}
}

func TestRunWorkloadBatch(t *testing.T) {
	path := writeTestData(t)
	ds, err := dataset.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := workload.Generate(ds, workload.Config{
		Count: 3, M: 2, Mode: workload.Random,
		Params: query.Params{K: 2, Alpha: 0.5, Beta: 3, GridD: 4, Xi: 10},
		Seed:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	wlPath := filepath.Join(t.TempDir(), "wl.jsonl")
	if err := workload.SaveFile(wlPath, ds, qs); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-data", path, "-workload", wlPath, "-algo", "hsp"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "ran 3 queries") {
		t.Errorf("summary missing:\n%s", out)
	}
	// mutually exclusive flags
	if err := run([]string{"-data", path, "-workload", wlPath, "-example", "1,2,x;3,4,y"}, io.Discard); err == nil {
		t.Error("-example with -workload should fail")
	}
}

func TestRunWithStats(t *testing.T) {
	path := writeTestData(t)
	ds, err := dataset.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	o1, o2 := ds.Object(0), ds.Object(1)
	spec := fmtPoint(o1.Loc, ds.CategoryName(o1.Category)) + ";" + fmtPoint(o2.Loc, ds.CategoryName(o2.Category))
	var sb strings.Builder
	if err := run([]string{"-data", path, "-example", spec, "-stats", "-algo", "lora"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "work:") || !strings.Contains(sb.String(), " pruned),") {
		t.Errorf("stats line missing:\n%s", sb.String())
	}
}

func TestRunWithMap(t *testing.T) {
	path := writeTestData(t)
	ds, err := dataset.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	o1, o2 := ds.Object(0), ds.Object(1)
	spec := fmtPoint(o1.Loc, ds.CategoryName(o1.Category)) + ";" + fmtPoint(o2.Loc, ds.CategoryName(o2.Category))
	var sb strings.Builder
	if err := run([]string{"-data", path, "-example", spec, "-map", "-algo", "hsp"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "example") || !strings.Contains(out, "result #1") {
		t.Errorf("map legend missing:\n%s", out)
	}
	if !strings.Contains(out, "+---") {
		t.Errorf("map frame missing:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	path := writeTestData(t)
	cases := [][]string{
		{},              // missing everything
		{"-data", path}, // missing example
		{"-data", path + ".missing", "-example", "1,2,a;3,4,b"},
		{"-data", path, "-example", "1,2,a;3,4,b", "-algo", "zzz"},
	}
	for i, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func fmtPoint(p geo.Point, cat string) string {
	return strconv.FormatFloat(p.X, 'g', -1, 64) + "," +
		strconv.FormatFloat(p.Y, 'g', -1, 64) + "," + cat
}
