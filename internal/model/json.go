package model

import (
	"encoding/json"
	"fmt"
	"io"
)

// wireProfile is a Profile as the versioned schema encodes it
// (docs/FORMATS.md): the same fields in the same order, with every arc
// endpoint written as a routine name.
type wireProfile struct {
	Schema       string     `json:"schema"`
	Hz           int64      `json:"hz"`
	TotalTicks   float64    `json:"total_ticks"`
	LostTicks    float64    `json:"lost_ticks,omitempty"`
	TotalSeconds float64    `json:"total_seconds"`
	Routines     []Routine  `json:"routines"`
	Cycles       []Cycle    `json:"cycles,omitempty"`
	Arcs         []wireArc  `json:"arcs,omitempty"`
	Flat         []FlatRow  `json:"flat,omitempty"`
	NeverCalled  []string   `json:"never_called,omitempty"`
	Stacks       *StackView `json:"stacks,omitempty"`
}

// wireArc is an Arc with its endpoints named: From is empty for a
// spontaneous arc.
type wireArc struct {
	From           string  `json:"from,omitempty"`
	To             string  `json:"to"`
	Count          int64   `json:"count"`
	TotalCalls     int64   `json:"total_calls,omitempty"`
	Sites          int     `json:"sites,omitempty"`
	Static         bool    `json:"static,omitempty"`
	PropSelfTicks  float64 `json:"prop_self_ticks"`
	PropChildTicks float64 `json:"prop_child_ticks"`
}

// header returns p's encoded form without its arcs. It shares p's
// slices; nothing is copied.
func (p *Profile) header() *wireProfile {
	return &wireProfile{
		Schema:       p.Schema,
		Hz:           p.Hz,
		TotalTicks:   p.TotalTicks,
		LostTicks:    p.LostTicks,
		TotalSeconds: p.TotalSeconds,
		Routines:     p.Routines,
		Cycles:       p.Cycles,
		Flat:         p.Flat,
		NeverCalled:  p.NeverCalled,
		Stacks:       p.Stacks,
	}
}

// wire returns p's encoded form. Arc endpoints must be in range.
func (p *Profile) wire() *wireProfile {
	w := p.header()
	if len(p.Arcs) > 0 {
		w.Arcs = make([]wireArc, len(p.Arcs))
	}
	for k := range p.Arcs {
		a := &p.Arcs[k]
		wa := wireArc{
			To:             p.Routines[a.To].Name,
			Count:          a.Count,
			TotalCalls:     a.TotalCalls,
			Sites:          a.Sites,
			Static:         a.Static,
			PropSelfTicks:  a.PropSelfTicks,
			PropChildTicks: a.PropChildTicks,
		}
		if a.From >= 0 {
			wa.From = p.Routines[a.From].Name
		}
		w.Arcs[k] = wa
	}
	return w
}

// Encode writes the profile as indented JSON under the versioned
// schema (docs/FORMATS.md). The encoding is deterministic: field order
// is struct order and every slice has a fixed order, so two encodings
// of the same analysis are byte-identical — golden tests and diffs can
// compare files directly.
func Encode(w io.Writer, p *Profile) error {
	if p.Schema == "" {
		return fmt.Errorf("model: refusing to encode a profile without a schema tag")
	}
	buf, err := json.MarshalIndent(p.wire(), "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// MarshalJSON writes p in the versioned schema, so a Profile handed to
// any JSON encoder carries the same keys Encode writes.
func (p *Profile) MarshalJSON() ([]byte, error) {
	return json.Marshal(p.wire())
}

// UnmarshalJSON reads p from the versioned schema with Decode's checks,
// replacing whatever p held.
func (p *Profile) UnmarshalJSON(data []byte) error {
	var w wireProfile
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	return p.fromWire(&w)
}

// Decode reads a JSON profile and validates its schema tag and
// internal consistency. It accepts the schemas this package writes —
// v1, and v2 for profiles carrying a stacks view; unknown versions are
// rejected loudly rather than misread.
func Decode(r io.Reader) (*Profile, error) {
	var w wireProfile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("model: decode: %w", err)
	}
	p := new(Profile)
	if err := p.fromWire(&w); err != nil {
		return nil, err
	}
	return p, nil
}

// fromWire checks an encoded profile and sets p to it. Arc endpoints
// and cycle members are resolved to routine positions here, once,
// through the name table that validation builds.
func (p *Profile) fromWire(w *wireProfile) error {
	if w.Schema != Schema && w.Schema != SchemaV2 {
		return fmt.Errorf("model: unsupported profile schema %q (want %q or %q)", w.Schema, Schema, SchemaV2)
	}
	if w.Schema == Schema && w.Stacks != nil {
		return fmt.Errorf("model: schema %q cannot carry a stacks view (that is %q)", Schema, SchemaV2)
	}
	names, err := w.validate()
	if err != nil {
		return err
	}
	*p = Profile{
		Schema:       w.Schema,
		Hz:           w.Hz,
		TotalTicks:   w.TotalTicks,
		LostTicks:    w.LostTicks,
		TotalSeconds: w.TotalSeconds,
		Routines:     w.Routines,
		Cycles:       w.Cycles,
		Flat:         w.Flat,
		NeverCalled:  w.NeverCalled,
		Stacks:       w.Stacks,
	}
	if len(w.Arcs) > 0 {
		p.Arcs = make([]Arc, len(w.Arcs))
	}
	for k := range w.Arcs {
		wa := &w.Arcs[k]
		a := Arc{
			From:           -1,
			To:             names[wa.To],
			Count:          wa.Count,
			TotalCalls:     wa.TotalCalls,
			Sites:          wa.Sites,
			Static:         wa.Static,
			PropSelfTicks:  wa.PropSelfTicks,
			PropChildTicks: wa.PropChildTicks,
		}
		if wa.From != "" {
			a.From = names[wa.From]
		}
		p.Arcs[k] = a
	}
	p.links = newLinks(p)
	return nil
}

// Validate checks the referential integrity a renderer or differ
// relies on: arcs point at routines, cycle members exist, and the
// clock rate is usable. Arcs are checked by position, so nothing is
// copied into the encoded form.
func (p *Profile) Validate() error {
	for i := range p.Arcs {
		a := &p.Arcs[i]
		if a.To < 0 || int(a.To) >= len(p.Routines) || int(a.From) >= len(p.Routines) || a.From < -1 {
			return fmt.Errorf("model: arc %d endpoints %d -> %d are not routines", i, a.From, a.To)
		}
	}
	_, err := p.header().validate()
	return err
}

// validate checks an encoded profile's referential integrity and
// returns its name table: each routine's position by name.
func (w *wireProfile) validate() (map[string]int32, error) {
	if w.Hz <= 0 {
		return nil, fmt.Errorf("model: non-positive clock rate %d", w.Hz)
	}
	names := make(map[string]int32, len(w.Routines))
	for i := range w.Routines {
		n := w.Routines[i].Name
		if n == "" {
			return nil, fmt.Errorf("model: routine %d has an empty name", i)
		}
		if _, dup := names[n]; dup {
			return nil, fmt.Errorf("model: duplicate routine %q", n)
		}
		names[n] = int32(i)
	}
	known := func(name string) bool {
		_, ok := names[name]
		return ok
	}
	numbers := make(map[int]bool, len(w.Cycles))
	for i := range w.Cycles {
		c := &w.Cycles[i]
		if numbers[c.Number] {
			return nil, fmt.Errorf("model: duplicate cycle number %d", c.Number)
		}
		numbers[c.Number] = true
		for _, m := range c.Members {
			if !known(m) {
				return nil, fmt.Errorf("model: cycle %d member %q is not a routine", c.Number, m)
			}
		}
	}
	for i := range w.Arcs {
		a := &w.Arcs[i]
		if a.To == "" || !known(a.To) {
			return nil, fmt.Errorf("model: arc %d callee %q is not a routine", i, a.To)
		}
		if a.From != "" && !known(a.From) {
			return nil, fmt.Errorf("model: arc %d caller %q is not a routine", i, a.From)
		}
	}
	for _, f := range w.Flat {
		if !known(f.Name) {
			return nil, fmt.Errorf("model: flat row %q is not a routine", f.Name)
		}
	}
	for _, n := range w.NeverCalled {
		if !known(n) {
			return nil, fmt.Errorf("model: never-called %q is not a routine", n)
		}
	}
	if w.Stacks != nil {
		if err := w.Stacks.validate(); err != nil {
			return nil, err
		}
	}
	return names, nil
}
