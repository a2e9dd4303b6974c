// Package core implements the timing- and area-driven global router of
// Harada & Kitazawa, "A Global Router Optimizing Timing and Area for
// High-Speed Bipolar LSI's" (DAC 1994).
//
// The router follows the paper's Fig. 2 outline:
//
//	01  external-terminal & feedthrough assignment      (package feed)
//	02  routing-graph initialization Gr(n)              (package rgraph)
//	03  delay-constraint-graph initialization Gd(P)     (package dgraph)
//	04-07  initial routing: concurrent edge deletion with the §3.4
//	       heuristics over delay criteria (Cd, Gl, LD from the local
//	       margin LM) and channel-density criteria (C_m, NC_m, C_M, NC_M)
//	08  constraint-violation recovery (rip-up & reroute)
//	09  delay-improvement loop
//	10  area-improvement loop (density criteria promoted)
//
// Bipolar-specific features (§4): differential pairs are deleted in
// lock-step on isomorphic graphs, multi-pitch nets carry pitch-weighted
// density and occupy adjacent feedthrough slots, and feed-cell insertion
// widens the chip when feedthroughs run out.
package core
