package render

import (
	"fmt"
	"strings"

	"repro/internal/chanroute"
	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/rgraph"
)

// SVG draws the routed chip to scale: cell rows (grey; feed cells hatched
// lighter), channels sized by their final track counts, per-net colored
// trunk segments on their assigned tracks, pin jogs and feedthroughs.
// The channel-routing result supplies the vertical geometry.
func SVG(res *engine.Result, cr *chanroute.Result) string {
	ckt := res.Ckt
	t := ckt.Tech
	scale := 1.0 // 1 SVG unit per µm

	// Vertical stacking bottom-up: channel 0, row 0, channel 1, ...
	chanH := make([]float64, ckt.Channels())
	for ci := range cr.Channels {
		chanH[ci] = float64(cr.Channels[ci].Tracks) * t.TrackPitch
		if chanH[ci] < t.TrackPitch {
			chanH[ci] = t.TrackPitch // draw empty channels thin but visible
		}
	}
	chanY := make([]float64, ckt.Channels()) // bottom edge of each channel
	rowY := make([]float64, ckt.Rows)        // bottom edge of each row
	y := 0.0
	for c := 0; c < ckt.Channels(); c++ {
		chanY[c] = y
		y += chanH[c]
		if c < ckt.Rows {
			rowY[c] = y
			y += t.RowHeight
		}
	}
	width := float64(ckt.Cols) * t.PitchX
	height := y

	var b strings.Builder
	// SVG y grows downward; flip so the chip reads bottom-up.
	flip := func(yy float64) float64 { return height - yy }
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		width*scale, height*scale, width, height)
	fmt.Fprintf(&b, `<rect x="0" y="0" width="%.0f" height="%.0f" fill="#fafafa" stroke="#333"/>`+"\n", width, height)

	// Rows and cells.
	for r := 0; r < ckt.Rows; r++ {
		fmt.Fprintf(&b, `<rect x="0" y="%.1f" width="%.1f" height="%.1f" fill="#ececec"/>`+"\n",
			flip(rowY[r]+t.RowHeight), width, t.RowHeight)
	}
	for i := range ckt.Cells {
		cell := &ckt.Cells[i]
		w := float64(ckt.Lib[cell.Type].Width) * t.PitchX
		x := float64(cell.Col) * t.PitchX
		fill := "#c8cdd4"
		if ckt.IsFeedCell(i) {
			fill = "#e6f2e6"
		}
		fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s" stroke="#999" stroke-width="0.5"/>`+"\n",
			x, flip(rowY[cell.Row]+t.RowHeight), w, t.RowHeight, fill)
	}

	// Net wiring from the channel segments.
	for ci := range cr.Channels {
		base := chanY[ci]
		for _, s := range cr.Channels[ci].Segments {
			color := netColor(s.Net, len(ckt.Nets))
			if s.Lo == s.Hi {
				// Straight-through.
				x := colX(t, s.Lo)
				fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="1.5"/>`+"\n",
					x, flip(base), x, flip(base+chanH[ci]), color)
				continue
			}
			ty := base + (float64(s.Track)+float64(s.Width)/2)*t.TrackPitch
			fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="%.1f"/>`+"\n",
				colX(t, s.Lo), flip(ty), colX(t, s.Hi), flip(ty), color, 1.2*float64(s.Width))
			for _, p := range s.Pins {
				px := colX(t, p.Col)
				py := base
				if p.FromTop {
					py = base + chanH[ci]
				}
				fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="1"/>`+"\n",
					px, flip(py), px, flip(ty), color)
			}
		}
	}
	// Feedthrough verticals through the rows.
	for n, g := range res.Graphs {
		color := netColor(n, len(ckt.Nets))
		for _, e := range g.AliveEdges() {
			ed := &g.Edges[e]
			if ed.Kind != rgraph.EFeed {
				continue
			}
			x := colX(t, ed.X1)
			fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="%d"/>`+"\n",
				x, flip(rowY[ed.Ch]), x, flip(rowY[ed.Ch]+t.RowHeight), color, g.Pitch)
		}
	}
	b.WriteString("</svg>\n")
	return b.String()
}

func colX(t circuit.Tech, col int) float64 {
	return (float64(col) + 0.5) * t.PitchX
}

// netColor spreads net indices around the hue circle with a golden-ratio
// step so neighboring indices get distinct colors.
func netColor(n, total int) string {
	_ = total
	hue := int(float64(n)*137.508) % 360
	return fmt.Sprintf("hsl(%d,70%%,45%%)", hue)
}
