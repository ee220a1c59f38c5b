package ilp

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The text format is a small LP-file dialect sufficient for 0-1 models:
//
//	# comment
//	max x + 2 y - 3 z
//	st
//	c1: x + y <= 1
//	c2: 2 x - y >= 0
//	c3: x + z = 1
//
// All variables are binary; they are declared implicitly by use. Terms are
// "[coef] name" separated by + or -.

// WriteText renders the model in the text format.
func WriteText(w io.Writer, m *Model) error {
	bw := bufio.NewWriter(w)
	dir := "min"
	if m.Maximize {
		dir = "max"
	}
	if _, err := fmt.Fprintf(bw, "%s %s\nst\n", dir, renderTerms(m, objCoefs(m))); err != nil {
		return err
	}
	for i := range m.rows {
		if _, err := fmt.Fprintln(bw, m.RowString(i)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func objCoefs(m *Model) []Coef {
	var out []Coef
	for j, c := range m.obj {
		if c != 0 {
			out = append(out, Coef{j, c})
		}
	}
	return out
}

func renderTerms(m *Model, coefs []Coef) string {
	if len(coefs) == 0 {
		return "0"
	}
	cp := append([]Coef(nil), coefs...)
	sortFunc(cp, byVar)
	var b strings.Builder
	for k, c := range cp {
		v := c.Val
		name := m.names[c.Var]
		switch {
		case k == 0 && v == 1:
			b.WriteString(name)
		case k == 0 && v == -1:
			b.WriteString("- " + name)
		case k == 0:
			fmt.Fprintf(&b, "%g %s", v, name)
		case v == 1:
			b.WriteString(" + " + name)
		case v == -1:
			b.WriteString(" - " + name)
		case v >= 0:
			fmt.Fprintf(&b, " + %g %s", v, name)
		default:
			fmt.Fprintf(&b, " - %g %s", -v, name)
		}
	}
	return b.String()
}

// ParseText reads a model in the text format.
func ParseText(r io.Reader) (*Model, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var m *Model
	vars := map[string]int{}
	getVar := func(name string) int {
		if j, ok := vars[name]; ok {
			return j
		}
		j := m.AddVar(name, 0)
		vars[name] = j
		return j
	}
	inConstraints := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lower := strings.ToLower(line)
		switch {
		case m == nil && (strings.HasPrefix(lower, "min") || strings.HasPrefix(lower, "max")):
			m = NewModel(strings.HasPrefix(lower, "max"))
			expr := strings.TrimSpace(line[3:])
			terms, err := parseTerms(expr)
			if err != nil {
				return nil, fmt.Errorf("ilp: line %d: %v", lineNo, err)
			}
			for _, t := range terms {
				j := getVar(t.name)
				m.SetObj(j, m.Obj(j)+t.coef)
			}
		case m == nil:
			return nil, fmt.Errorf("ilp: line %d: expected objective (min/max ...)", lineNo)
		case lower == "st" || lower == "s.t." || lower == "subject to":
			inConstraints = true
		case inConstraints:
			name, rest := "", line
			if ci := strings.Index(line, ":"); ci >= 0 {
				name = strings.TrimSpace(line[:ci])
				rest = strings.TrimSpace(line[ci+1:])
			}
			var sense Sense
			var lhs, rhsStr string
			switch {
			case strings.Contains(rest, "<="):
				parts := strings.SplitN(rest, "<=", 2)
				lhs, rhsStr, sense = parts[0], parts[1], LE
			case strings.Contains(rest, ">="):
				parts := strings.SplitN(rest, ">=", 2)
				lhs, rhsStr, sense = parts[0], parts[1], GE
			case strings.Contains(rest, "="):
				parts := strings.SplitN(rest, "=", 2)
				lhs, rhsStr, sense = parts[0], parts[1], EQ
			default:
				return nil, fmt.Errorf("ilp: line %d: no comparison in %q", lineNo, line)
			}
			rhs, err := strconv.ParseFloat(strings.TrimSpace(rhsStr), 64)
			if err != nil {
				return nil, fmt.Errorf("ilp: line %d: bad rhs %q", lineNo, rhsStr)
			}
			terms, err := parseTerms(strings.TrimSpace(lhs))
			if err != nil {
				return nil, fmt.Errorf("ilp: line %d: %v", lineNo, err)
			}
			merged := map[int]float64{}
			var order []int
			for _, t := range terms {
				j := getVar(t.name)
				if _, seen := merged[j]; !seen {
					order = append(order, j)
				}
				merged[j] += t.coef
			}
			coefs := make([]Coef, 0, len(order))
			for _, j := range order {
				coefs = append(coefs, Coef{j, merged[j]})
			}
			m.AddRow(name, coefs, sense, rhs)
		default:
			return nil, fmt.Errorf("ilp: line %d: unexpected %q before 'st'", lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("ilp: empty input")
	}
	return m, nil
}

type term struct {
	coef float64
	name string
}

// parseTerms parses "2 x + y - 3 z" into terms. "0" parses to no terms.
func parseTerms(expr string) ([]term, error) {
	if strings.TrimSpace(expr) == "0" {
		return nil, nil
	}
	toks := strings.Fields(expr)
	var out []term
	sign := 1.0
	coef := 1.0
	haveCoef := false
	for _, tok := range toks {
		switch tok {
		case "+":
			sign, coef, haveCoef = 1, 1, false
			continue
		case "-":
			sign, coef, haveCoef = -1, 1, false
			continue
		}
		if v, err := strconv.ParseFloat(tok, 64); err == nil {
			if haveCoef {
				return nil, fmt.Errorf("two consecutive numbers near %q", tok)
			}
			coef = v
			haveCoef = true
			continue
		}
		// Handle glued forms like "2x" or "-x".
		name := tok
		if strings.HasPrefix(name, "-") {
			sign *= -1
			name = name[1:]
		}
		if i := leadingNumber(name); i > 0 {
			v, err := strconv.ParseFloat(name[:i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad coefficient in %q", tok)
			}
			coef = v
			name = name[i:]
		}
		if name == "" {
			return nil, fmt.Errorf("missing variable name near %q", tok)
		}
		out = append(out, term{sign * coef, name})
		sign, coef, haveCoef = 1, 1, false
	}
	if haveCoef {
		return nil, fmt.Errorf("dangling coefficient at end of %q", expr)
	}
	return out, nil
}

func leadingNumber(s string) int {
	i := 0
	for i < len(s) && (s[i] >= '0' && s[i] <= '9' || s[i] == '.') {
		i++
	}
	return i
}
