package main

import (
	"strings"
	"testing"
)

func TestRunErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the error, "" for any
	}{
		{[]string{"-duration", "60"}, "exactly one of -hotpath, -obs-bench and -regress"},
		{[]string{"-regress", "-hotpath", "-duration", "60"}, "exactly one of -hotpath, -obs-bench and -regress"},
		{[]string{"-hotpath", "-obs-bench", "-regress"}, "exactly one of -hotpath, -obs-bench and -regress"},
		{[]string{"-hotpath", "-duration", "-1"}, "Duration"},
		{[]string{"-hotpath", "-duration", "NaN"}, "Duration"},
		{[]string{"-hotpath", "-scales", "abc", "-duration", "60"}, "bad scale"},
		{[]string{"-ablation", "alpha"}, ""},
		{[]string{"-badflag"}, ""},
	}
	for _, tc := range cases {
		var b strings.Builder
		err := run(&b, tc.args)
		if err == nil {
			t.Errorf("args %v: want error", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("args %v: error %q does not mention %q", tc.args, err, tc.want)
		}
	}
}
