package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// promText is a parsed Prometheus text exposition (format 0.0.4): each
// sample under its name and its labels rendered as sorted k="v" pairs.
type promText map[string]map[string]float64

// parseProm reads the exposition dwserve's /metrics writes. Comment
// lines are skipped and an exemplar suffix (" # {trace_id=...} v") is
// cut off; a malformed sample line is an error, not silently zero.
func parseProm(text string) (promText, error) {
	out := promText{}
	for n, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		name, labels, rest := line, "", ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				return nil, fmt.Errorf("metrics line %d: unbalanced braces: %s", n+1, line)
			}
			name, labels, rest = line[:i], line[i+1:j], line[j+1:]
		} else if i := strings.IndexByte(line, ' '); i >= 0 {
			name, rest = line[:i], line[i:]
		}
		fields := strings.Fields(rest) // value [timestamp]
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics line %d: no value: %s", n+1, line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n+1, err)
		}
		key, err := canonLabels(labels)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", n+1, err)
		}
		if out[name] == nil {
			out[name] = map[string]float64{}
		}
		out[name][key] = v
	}
	return out, nil
}

// canonLabels sorts k="v" pairs; values may hold escaped quotes and
// commas, so the split walks the string instead of cutting on commas.
func canonLabels(s string) (string, error) {
	var pairs []string
	for s != "" {
		eq := strings.Index(s, `="`)
		if eq < 0 {
			return "", fmt.Errorf("bad label set %q", s)
		}
		end := eq + 2
		for end < len(s) && s[end] != '"' {
			if s[end] == '\\' {
				end++
			}
			end++
		}
		if end >= len(s) {
			return "", fmt.Errorf("unterminated label value in %q", s)
		}
		pairs = append(pairs, s[:end+1])
		s = strings.TrimPrefix(s[end+1:], ",")
	}
	sort.Strings(pairs)
	return strings.Join(pairs, ","), nil
}

// total sums a family over all its label sets.
func (p promText) total(name string) float64 {
	var sum float64
	for _, v := range p[name] {
		sum += v
	}
	return sum
}

// histQuantile estimates a quantile of the observations a histogram
// family received between two scrapes, interpolating linearly inside
// the bucket that holds it, as Prometheus' histogram_quantile does.
// It returns 0 when nothing was observed.
func histQuantile(before, after promText, family string, q float64) float64 {
	type bucket struct{ le, count float64 }
	var bs []bucket
	for labels, v := range after[family+"_bucket"] {
		le, ok := strings.CutPrefix(labels, `le="`)
		if !ok {
			continue // a labelled histogram; the benchmark reads unlabelled ones
		}
		bound, err := strconv.ParseFloat(strings.TrimSuffix(le, `"`), 64)
		if err != nil {
			continue // "+Inf" parses; anything else is skipped
		}
		bs = append(bs, bucket{bound, v - before[family+"_bucket"][labels]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].count == 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].count
	lower, below := 0.0, 0.0
	for _, b := range bs {
		if b.count >= rank {
			if math.IsInf(b.le, 1) {
				return lower
			}
			return lower + (b.le-lower)*(rank-below)/(b.count-below)
		}
		lower, below = b.le, b.count
	}
	return lower
}
