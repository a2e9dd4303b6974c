// Package render draws ASCII pictures of routed chips: cell rows with
// feed cells and used feedthroughs, and channel density profiles. Meant
// for eyeballing results in a terminal, not for manufacturing.
package render

import (
	"fmt"
	"strings"

	"repro/internal/engine"
)

// Layout draws the routed chip top-down: channels as base-36 density
// profiles, rows as cell maps ('#' logic cell, 'F' feed cell, '|' a used
// feedthrough column).
func Layout(res *engine.Result) string {
	ckt := res.Ckt
	var b strings.Builder
	fmt.Fprintf(&b, "layout %s: %d cols x %d rows (+%d channels)\n", ckt.Name, ckt.Cols, ckt.Rows, ckt.Channels())

	rowLines := make([][]byte, ckt.Rows)
	for r := range rowLines {
		rowLines[r] = []byte(strings.Repeat(".", ckt.Cols))
	}
	for i := range ckt.Cells {
		cell := &ckt.Cells[i]
		mark := byte('#')
		if ckt.IsFeedCell(i) {
			mark = 'F'
		}
		for w := 0; w < ckt.Lib[cell.Type].Width; w++ {
			if col := cell.Col + w; col >= 0 && col < ckt.Cols {
				rowLines[cell.Row][col] = mark
			}
		}
	}
	for n := range res.Feeds {
		w := ckt.Nets[n].Pitch
		for _, f := range res.Feeds[n] {
			for j := 0; j < w; j++ {
				if col := f.Col + j; col >= 0 && col < ckt.Cols {
					rowLines[f.Row][col] = '|'
				}
			}
		}
	}
	channelLine := func(ch int) string {
		profile := res.Dens.ProfileM(ch)
		line := make([]byte, len(profile))
		for x, d := range profile {
			line[x] = densChar(d)
		}
		return string(line)
	}
	for ch := ckt.Rows; ch >= 0; ch-- {
		st := res.Dens.Channel(ch)
		fmt.Fprintf(&b, "ch%-2d %s  C_M=%d\n", ch, channelLine(ch), st.CM)
		if ch > 0 {
			fmt.Fprintf(&b, "row%-1d %s\n", ch-1, rowLines[ch-1])
		}
	}
	return b.String()
}

// densChar maps a density value to one character: blank, 1-9, then a-z,
// then '*' beyond 35.
func densChar(d int) byte {
	switch {
	case d <= 0:
		return ' '
	case d <= 9:
		return byte('0' + d)
	case d <= 35:
		return byte('a' + d - 10)
	}
	return '*'
}
