// Package asm implements the multiscalar assembler: it turns annotated
// assembly source into an isa.Program. It is the hand-written stand-in for
// the binary-emission half of the paper's modified GCC 2.5.8: labels,
// data directives, task descriptor directives (.task), forward/stop
// annotation suffixes (!f, !s, !st, !snt), and single-source dual builds
// via .msonly/.sconly line prefixes so one source yields both the scalar
// and the multiscalar binary (Table 2's instruction-count deltas fall out
// of exactly this mechanism).
package asm

import (
	"fmt"
	"strconv"
	"strings"
)

type tokKind uint8

const (
	tokIdent tokKind = iota
	tokReg
	tokNum
	tokString
	tokPunct // one of , ( ) = : + -
	tokAnnot // !f !s !st !snt
	tokDirective
)

type token struct {
	kind    tokKind
	text    string
	num     int64
	fnum    float64
	isFloat bool
}

// lexLine splits one logical source line (comments already stripped) into
// tokens.
func lexLine(line string) ([]token, error) {
	var toks []token
	i := 0
	n := len(line)
	for i < n {
		c := line[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == ',' || c == '(' || c == ')' || c == '=' || c == ':' || c == '+' || c == '-':
			toks = append(toks, token{kind: tokPunct, text: string(c)})
			i++
		case c == '!':
			j := i + 1
			for j < n && isIdentChar(line[j]) {
				j++
			}
			a := line[i:j]
			switch a {
			case "!f", "!s", "!st", "!snt":
				toks = append(toks, token{kind: tokAnnot, text: a})
			default:
				return nil, fmt.Errorf("unknown annotation %q", a)
			}
			i = j
		case c == '.':
			j := i + 1
			for j < n && isIdentChar(line[j]) {
				j++
			}
			if j == i+1 {
				return nil, fmt.Errorf("stray '.'")
			}
			toks = append(toks, token{kind: tokDirective, text: line[i:j]})
			i = j
		case c == '$':
			j := i + 1
			for j < n && isIdentChar(line[j]) {
				j++
			}
			toks = append(toks, token{kind: tokReg, text: line[i:j]})
			i = j
		case c == '"':
			s, next, err := lexString(line, i)
			if err != nil {
				return nil, err
			}
			toks = append(toks, token{kind: tokString, text: s})
			i = next
		case c == '\'':
			if i+2 < n && line[i+1] == '\\' {
				v, ok := escapeChar(line[i+2])
				if !ok || i+3 >= n || line[i+3] != '\'' {
					return nil, fmt.Errorf("bad character literal")
				}
				toks = append(toks, token{kind: tokNum, num: int64(v), text: line[i : i+4]})
				i += 4
			} else if i+2 < n && line[i+2] == '\'' {
				toks = append(toks, token{kind: tokNum, num: int64(line[i+1]), text: line[i : i+3]})
				i += 3
			} else {
				return nil, fmt.Errorf("bad character literal")
			}
		case c >= '0' && c <= '9':
			j := i
			for j < n && (isIdentChar(line[j]) || line[j] == '.') {
				j++
			}
			text := line[i:j]
			tk := token{kind: tokNum, text: text}
			if strings.ContainsAny(text, ".") || (strings.ContainsAny(text, "eE") && !strings.HasPrefix(text, "0x") && !strings.HasPrefix(text, "0X")) {
				var f float64
				if _, err := fmt.Sscanf(text, "%g", &f); err != nil {
					return nil, fmt.Errorf("bad float %q", text)
				}
				tk.fnum = f
				tk.isFloat = true
			} else {
				v, err := parseNum(text)
				if err != nil {
					return nil, err
				}
				tk.num = v
			}
			toks = append(toks, tk)
			i = j
		case isIdentStart(c):
			j := i
			for j < n && (isIdentChar(line[j]) || line[j] == '.') {
				j++
			}
			toks = append(toks, token{kind: tokIdent, text: line[i:j]})
			i = j
		default:
			return nil, fmt.Errorf("unexpected character %q", c)
		}
	}
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

// parseNum parses an integer literal token whole: decimal, or
// hexadecimal after a 0x/0X prefix. A token with any other character in
// it (12abc, 0b101, 1_000) is a bad number, not a truncated one.
func parseNum(s string) (int64, error) {
	base, digits := 10, s
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		base, digits = 16, s[2:]
	}
	v, err := strconv.ParseInt(digits, base, 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", s)
	}
	return v, nil
}

func lexString(line string, start int) (string, int, error) {
	var b strings.Builder
	i := start + 1
	for i < len(line) {
		c := line[i]
		if c == '"' {
			return b.String(), i + 1, nil
		}
		if c == '\\' {
			if i+1 >= len(line) {
				return "", 0, fmt.Errorf("unterminated escape")
			}
			v, ok := escapeChar(line[i+1])
			if !ok {
				return "", 0, fmt.Errorf("bad escape \\%c", line[i+1])
			}
			b.WriteByte(v)
			i += 2
			continue
		}
		b.WriteByte(c)
		i++
	}
	return "", 0, fmt.Errorf("unterminated string")
}

func escapeChar(c byte) (byte, bool) {
	switch c {
	case 'n':
		return '\n', true
	case 't':
		return '\t', true
	case 'r':
		return '\r', true
	case '0':
		return 0, true
	case '\\':
		return '\\', true
	case '"':
		return '"', true
	case '\'':
		return '\'', true
	default:
		return 0, false
	}
}

// stripComment removes ;, # and // comments, respecting string literals.
func stripComment(line string) string {
	inStr := false
	for i := 0; i < len(line); i++ {
		c := line[i]
		if inStr {
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
			continue
		}
		switch {
		case c == '"':
			inStr = true
		case c == ';' || c == '#':
			return line[:i]
		case c == '/' && i+1 < len(line) && line[i+1] == '/':
			return line[:i]
		}
	}
	return line
}
