package faults

import "testing"

// FuzzParseSpec checks that every plan ParseSpec accepts survives its
// own canonical rendering: parsing s.String() yields s again, and the
// rendering of that result is the same text. serve's spec digest embeds
// String, so a plan that did not round-trip would be cached under a key
// that names a different plan.
func FuzzParseSpec(f *testing.F) {
	for _, s := range roundTripSpecs {
		f.Add(s.Normalize().String())
	}
	for _, p := range Presets() {
		f.Add(p.Name)
	}
	f.Add("drop=NaN")
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSpec(text)
		if err != nil {
			return
		}
		canon := s.String()
		back, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted, but its rendering %q is rejected: %v", text, canon, err)
		}
		if back != s {
			t.Fatalf("ParseSpec(%q) = %+v, but its rendering %q parses to %+v", text, s, canon, back)
		}
		if again := back.String(); again != canon {
			t.Fatalf("rendering of %q is unstable: %q then %q", text, canon, again)
		}
	})
}
