package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type runLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// selfCheck runs each workload n times, with seeds 1..n, each in its own
// process, and prints every end-to-end metric's median and interquartile
// spread against the bound BENCHMARK.json gives it. A spread wider than
// the bound is flagged; so is one wider than a third of it, the margin a
// steady benchmark keeps. It returns 1 if any run failed or any spread
// other than setup_s exceeds its bound.
func selfCheck(a args, specs []workloadSpec, n int) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: selfcheck reads BENCHMARK.json from the repository root:", err)
		return 1
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: BENCHMARK.json:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, w := range specs {
		values := map[string][]float64{}
		for seed := 1; seed <= n; seed++ {
			cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.Itoa(a.seconds), "--trace", "0", "--workload-seed", strconv.FormatUint(a.workloadSeed, 10))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			r, perr := lastLine(out)
			if err != nil || perr != nil || !r.Correct || r.Failed > 0 {
				fmt.Printf("%s seed %d: run failed (%v %v)\n", w.name, seed, err, perr)
				code = 1
				continue
			}
			for k, v := range r.Metrics {
				values[k] = append(values[k], v.Value)
			}
			fmt.Printf("%s seed %d: %s", w.name, seed, lastLineText(out))
		}
		fmt.Printf("%s over %d seeds:\n", w.name, n)
		for _, m := range bf.EndToEnd {
			xs := values[m.Name]
			if len(xs) < 2 {
				continue
			}
			sp := spread(xs)
			flag := "ok"
			switch {
			case sp > m.Bound:
				flag = "WIDER THAN BOUND"
				if m.Name != "setup_s" {
					code = 1
				}
			case sp > m.Bound/3:
				flag = "wider than bound/3"
			}
			fmt.Printf("  %-18s median %12.4f  spread %6.2f%%  bound %5.1f%%  %s\n", m.Name, median(xs), 100*sp, 100*m.Bound, flag)
		}
	}
	return code
}

func lastLineText(out []byte) string {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	return lines[len(lines)-1] + "\n"
}

func lastLine(out []byte) (runLine, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		last = sc.Text()
	}
	var r runLine
	err := json.Unmarshal([]byte(last), &r)
	return r, err
}
