package asm

import (
	"strings"
	"testing"
)

// TestAssembleErrorPaths sweeps malformed inputs; each must produce an
// error mentioning its line.
func TestAssembleErrorPaths(t *testing.T) {
	cases := map[string]string{
		"bad annotation":        "main:\n\tadd $t0, $t0, $t0 !x\n",
		"stray dot":             "main:\n\t. foo\n",
		"unterminated string":   ".data\ns:\t.asciiz \"abc\n",
		"bad escape":            ".data\ns:\t.asciiz \"a\\qb\"\n",
		"bad char literal":      "main:\n\tli $t0, 'ab'\n",
		"unbalanced paren":      "main:\n\tlw $t0, 4($sp\n",
		"close paren":           "main:\n\tlw $t0, 4)$sp(\n",
		"empty operand":         "main:\n\tadd $t0, , $t1\n",
		"bad number":            "main:\n\tli $t0, 0xzz\n",
		"float in int expr":     "main:\n\tli $t0, 1.5\n",
		"unknown directive":     "main:\n\t.bogus 1\n",
		"align in text":         "main:\n\t.align 2\n",
		"space in text":         "main:\n\t.space 4\n",
		"word in text":          "main:\n\t.word 1\n",
		"byte with symbol":      ".data\nx:\t.byte x\n",
		"global missing arg":    ".global\nmain:\n\tsyscall\n",
		"task without name":     "main:\n\tsyscall\n.task\n",
		"task bad kv":           "main:\n\tsyscall\n.task main bogus\n",
		"task dup key":          "main:\n\tsyscall\n.task main targets=main targets=main\n",
		"task unknown entry":    "main:\n\tsyscall\n.task t entry=zzz targets=main\n",
		"task unknown target":   "main:\n\tsyscall\n.task main targets=zzz\n",
		"task bad create":       "main:\n\tsyscall\n.task main targets=main create=7\n",
		"task unknown pushra":   "main:\n\tsyscall\n.task main targets=main pushra=zzz\n",
		"pushra without target": "main:\n\tsyscall\n.task main pushra=main\n",
		"too many operands":     "main:\n\tadd $t0, $t1, $t2, $t3\n",
		"too few operands":      "main:\n\tadd $t0\n",
		"reg where imm":         "main:\n\tj $t0\n",
		"mem wants reg":         "main:\n\tlw $t0, 4(3)\n",
		"jalr three operands":   "main:\n\tjalr $t0, $t1, $t2\n",
		"release no regs":       "main:\n\trelease\n\tsyscall\n.task main targets=main\n",
		"imm out of range":      "main:\n\tli $t0, 99999999999\n",
		"expr ends":             "main:\n\tli $t0, 1+\n",
		"expr junk":             "main:\n\tli $t0, 1+$t0\n",
	}
	for name, src := range cases {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			mode := ModeMultiscalar
			if _, err := Assemble(src, mode); err == nil {
				t.Errorf("expected error for %s", name)
			} else if !strings.Contains(err.Error(), "line") &&
				!strings.Contains(err.Error(), "task") &&
				!strings.Contains(err.Error(), "undefined") {
				t.Logf("error (ok, but unlocated): %v", err)
			}
		})
	}
}

// TestNumbersParseWhole pins that an integer literal is read as a whole
// token: a stray character makes it a bad number instead of silently
// truncating it, and a leading zero does not switch to octal.
func TestNumbersParseWhole(t *testing.T) {
	for _, tok := range []string{"12abc", "0b101", "1_000", "0x", "0xzz", "0x1g"} {
		_, err := Assemble("main:\n\tli $t0, "+tok+"\n", ModeScalar)
		if err == nil || !strings.Contains(err.Error(), "bad number") {
			t.Errorf("%s: err = %v, want a bad number", tok, err)
		}
	}
	for tok, want := range map[string]int64{"0": 0, "017": 17, "4096": 4096, "0x1F": 31, "0X10": 16, "0xffffffff": 0xffffffff} {
		if v, err := parseNum(tok); err != nil || v != want {
			t.Errorf("parseNum(%q) = %d, %v; want %d", tok, v, err, want)
		}
	}
}

func TestEntrySymbolUndefined(t *testing.T) {
	if _, err := Assemble(".global nowhere\nmain:\n\tsyscall\n", ModeScalar); err == nil {
		t.Error("undefined entry should fail")
	}
}

func TestCharLiterals(t *testing.T) {
	p := mustAssemble(t, "main:\n\tli $t0, 'A'\n\tli $t1, '\\n'\n\tli $t2, '\\''\n\tsyscall\n", ModeScalar)
	if p.Text[0].Imm != 'A' || p.Text[1].Imm != '\n' || p.Text[2].Imm != '\'' {
		t.Errorf("chars = %d %d %d", p.Text[0].Imm, p.Text[1].Imm, p.Text[2].Imm)
	}
}

func TestNegativeExpressions(t *testing.T) {
	p := mustAssemble(t, "main:\n\tli $t0, -5\n\tli $t1, 10-3\n\tli $t2, -2+7\n\tsyscall\n", ModeScalar)
	if p.Text[0].Imm != -5 || p.Text[1].Imm != 7 || p.Text[2].Imm != 5 {
		t.Errorf("exprs = %d %d %d", p.Text[0].Imm, p.Text[1].Imm, p.Text[2].Imm)
	}
}

func TestHexAndNegativeData(t *testing.T) {
	p := mustAssemble(t, ".data\nx:\t.word -1, 0x7fffffff\n\t.half -2\n\t.byte -3\n.text\nmain:\n\tsyscall\n", ModeScalar)
	if p.Data[0] != 0xff || p.Data[4] != 0x7f {
		t.Errorf("data = %x", p.Data[:8])
	}
}

func TestModeString(t *testing.T) {
	if ModeScalar.String() != "scalar" || ModeMultiscalar.String() != "multiscalar" {
		t.Error("mode names wrong")
	}
}

func TestMultipleLabelsOneLine(t *testing.T) {
	p := mustAssemble(t, "a: b: c:\tmain:\n\tsyscall\n", ModeScalar)
	for _, l := range []string{"a", "b", "c", "main"} {
		if addr, ok := p.Symbol(l); !ok || addr != p.Entry {
			t.Errorf("label %s = 0x%x, ok=%v", l, addr, ok)
		}
	}
}
