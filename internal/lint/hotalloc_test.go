package lint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAnnotationRot checks that a bgr:hot or bgr:owned directive that is
// malformed, misattached, or typed wrong is itself a diagnostic — an
// annotation that silently guards nothing is worse than none. The
// expectations are substrings rather than // want comments because the
// diagnostics land on the directive lines, where a trailing want comment
// would become part of the directive text.
func TestAnnotationRot(t *testing.T) {
	diags := runFixture(t, "annot")
	expect := []string{
		`malformed annotation "//bgr:hot now"`,
		"bgr:hot is not attached to a function declaration",
		"bgr:owned field must be slice- or array-typed",
		`malformed annotation "//bgr:owned stuff"`,
		"bgr:owned is not attached to a struct field",
	}
	var extra []Diagnostic
outer:
	for _, d := range diags {
		for i, sub := range expect {
			if sub != "" && strings.Contains(d.Message, sub) {
				expect[i] = ""
				continue outer
			}
		}
		extra = append(extra, d)
	}
	for _, sub := range expect {
		if sub != "" {
			t.Errorf("no diagnostic containing %q (got %v)", sub, diags)
		}
	}
	for _, d := range extra {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

// TestJSONGolden pins the -json output byte for byte: ordering (file,
// line, column, analyzer), field names, indentation. CI and editor
// integrations parse this; it must not drift silently.
func TestJSONGolden(t *testing.T) {
	diags := runFixture(t, "clockuse")
	abs, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	Relativize(diags, abs)
	got, err := json.MarshalIndent(diags, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "clockuse.golden.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("JSON output drifted from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// TestAllowlistCoversAndRots runs the hotalloc fixture against a
// purpose-built allowlist: a covering entry must silence its site, a
// malformed line and an entry matching nothing must each be reported.
func TestAllowlistCoversAndRots(t *testing.T) {
	allow := filepath.Join(t.TempDir(), "allow.txt")
	content := "# test allowlist\n" +
		"core.fill :: escapes to heap -- test: covers the fixture's make\n" +
		"core.missing :: * -- test: matches nothing, must be reported stale\n" +
		"core.broken ::\n"
	if err := os.WriteFile(allow, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	diags, err := Run(&Context{Dir: ".", Allowlist: allow}, loadFixture(t, "hotalloc"), Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	expect := []string{
		"malformed allowlist entry",
		`stale hotalloc allowlist entry for core.missing`,
	}
	var extra []Diagnostic
outer:
	for _, d := range diags {
		for i, sub := range expect {
			if sub != "" && strings.Contains(d.Message, sub) {
				if d.Pos.Filename != allow {
					t.Errorf("diagnostic %q reported at %s, want the allowlist file", sub, d.Pos.Filename)
				}
				expect[i] = ""
				continue outer
			}
		}
		extra = append(extra, d)
	}
	for _, sub := range expect {
		if sub != "" {
			t.Errorf("no diagnostic containing %q (got %v)", sub, diags)
		}
	}
	// In particular core.fill's allocation must be covered: any leftover
	// diagnostic here would be the hot-path finding leaking through.
	for _, d := range extra {
		t.Errorf("unexpected diagnostic with allowlist in force: %s", d)
	}
}

// TestMissingAllowlistFailsRun pins the exit-2 contract: an allowlist
// path that cannot be read fails the run, it does not silently vet
// without the list.
func TestMissingAllowlistFailsRun(t *testing.T) {
	absent := filepath.Join(t.TempDir(), "absent.txt")
	_, err := Run(&Context{Dir: ".", Allowlist: absent}, loadFixture(t, "hotalloc"), Analyzers())
	if err == nil || !strings.Contains(err.Error(), "hotalloc allowlist") {
		t.Fatalf("Run with missing allowlist: err = %v, want hotalloc allowlist read failure", err)
	}
}

// TestDumpParseError pins the other half of the exit-2 contract: a
// compiler dump that is missing its header or contains an unparsable
// diagnostic line is a hard error, never an empty (passing) result.
func TestDumpParseError(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name, content, wantSub string
	}{
		{"garbage-header", "not json at all\n", "unparsable escape-dump header"},
		{"header-missing-version", `{"file":"x.go"}` + "\n", "unparsable escape-dump header"},
		{"garbage-diagnostic", `{"version":0,"file":"x.go"}` + "\n{broken json\n", "unparsable escape-dump diagnostic"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(dir, c.name+".json")
			if err := os.WriteFile(path, []byte(c.content), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := parseEscapeDump(path)
			if err == nil || !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("parseEscapeDump(%s): err = %v, want substring %q", c.name, err, c.wantSub)
			}
		})
	}
}
