package main

import (
	"strings"
	"testing"
)

func TestRunTable1(t *testing.T) {
	var b strings.Builder
	if err := run(&b, []string{"-figure", "table1"}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "vehicle") {
		t.Errorf("output:\n%s", out)
	}
}

func TestRunSingleFigures(t *testing.T) {
	for _, fig := range []string{"4", "5", "6", "7", "8", "9"} {
		var b strings.Builder
		err := run(&b, []string{"-figure", fig, "-duration", "120", "-factors", "1.0"})
		if err != nil {
			t.Fatalf("figure %s: %v", fig, err)
		}
		if !strings.Contains(b.String(), "Figure "+fig) {
			t.Errorf("figure %s output missing title:\n%s", fig, b.String())
		}
	}
}

func TestRunAllFigures(t *testing.T) {
	var b strings.Builder
	if err := run(&b, []string{"-duration", "120", "-factors", "0.75,1.25"}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Table 1", "Figure 4", "Figure 9"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestRunEnergyAndPercentiles(t *testing.T) {
	for fig, want := range map[string]string{
		"energy":      "Energy budget",
		"percentiles": "percentiles",
	} {
		var b strings.Builder
		if err := run(&b, []string{"-figure", fig, "-duration", "120", "-factors", "1.0"}); err != nil {
			t.Fatalf("%s: %v", fig, err)
		}
		if !strings.Contains(b.String(), want) {
			t.Errorf("%s output missing %q", fig, want)
		}
	}
}

func TestRunSeedsAndScale(t *testing.T) {
	var b strings.Builder
	if err := run(&b, []string{"-figure", "scale", "-duration", "60", "-factors", "1.0"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Scalability") {
		t.Errorf("scale output: %s", b.String())
	}
	b.Reset()
	if err := run(&b, []string{"-figure", "seeds", "-duration", "60", "-factors", "1.0"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "independent seeds") {
		t.Errorf("seeds output: %s", b.String())
	}
}

func TestRunWithSeries(t *testing.T) {
	var b strings.Builder
	if err := run(&b, []string{"-figure", "7", "-duration", "120", "-factors", "1.0", "-series"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "RMSE w/o LE:") {
		t.Errorf("series missing:\n%s", b.String())
	}
}

func TestRunSingleAblations(t *testing.T) {
	wants := map[string]string{
		"adf-vs-gdf": "general DF",
		"alpha":      "similarity bound",
		"estimators": "shoot-out",
		"recluster":  "reconstruction interval",
		"smoothing":  "smoothing constant",
		"semantics":  "semantics",
		"outages":    "bursty wireless loss",
		"churn":      "node churn",
	}
	for name, want := range wants {
		var b strings.Builder
		if err := run(&b, []string{"-figure", name, "-duration", "120", "-factors", "1.0"}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(b.String(), want) {
			t.Errorf("%s output missing %q:\n%s", name, want, b.String())
		}
	}
}

func TestRunAllAblations(t *testing.T) {
	var b strings.Builder
	if err := run(&b, []string{"-figure", "ablations", "-duration", "120", "-factors", "1.0"}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"general DF", "shoot-out", "semantics"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-figure", "99", "-duration", "60"},
		{"-factors", "abc"},
		{"-factors", ""},
		{"-duration", "-5"},
		{"-figure", "4", "-duration", "NaN"},
		{"-figure", "4", "-duration", "Inf"},
		{"-figure", "4", "-duration", "60", "-factors", "NaN"},
		{"-estimator", "bogus", "-duration", "60"},
		{"-unknownflag"},
	}
	for _, args := range cases {
		var b strings.Builder
		if err := run(&b, args); err == nil {
			t.Errorf("args %v: want error", args)
		}
	}
}

func TestParseFactors(t *testing.T) {
	got, err := parseFactors(" 0.5, 1.0 ,2 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0.5 || got[2] != 2 {
		t.Errorf("parseFactors = %v", got)
	}
	if _, err := parseFactors(",,"); err == nil {
		t.Error("empty list accepted")
	}
}
