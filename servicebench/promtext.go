package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// parsePromText reads a Prometheus text exposition and sums the samples of
// each metric name over all their label sets (histogram buckets, _sum and
// _count stay separate names). The benchmark only ever needs totals, such
// as every wsnlinkd_http_requests_total series added up.
func parsePromText(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, err := splitSeries(line)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n, err)
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics line %d: no value", n)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// splitSeries splits a sample line into its metric name and the text after
// the (optional) label block. Label values are quoted and may contain
// spaces, braces and escaped quotes.
func splitSeries(line string) (name, rest string, err error) {
	i := strings.IndexAny(line, "{ \t")
	if i <= 0 {
		return "", "", fmt.Errorf("malformed sample %q", line)
	}
	name = line[:i]
	if line[i] != '{' {
		return name, line[i:], nil
	}
	inQuote := false
	for j := i + 1; j < len(line); j++ {
		switch c := line[j]; {
		case inQuote && c == '\\':
			j++ // skip the escaped character
		case c == '"':
			inQuote = !inQuote
		case !inQuote && c == '}':
			return name, line[j+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated labels in %q", line)
}

// delta is after minus before, per metric name.
func delta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
