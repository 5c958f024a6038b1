// Package model defines coMtainer's process models — the "IR" of the
// toolset (paper §4.3): the Image Model classifying every file in the
// application image by origin, the Build Graph Model capturing all data
// transformations of the build as a typed DAG, and the Compilation Models
// describing how each generated node was produced.
package model

import (
	"encoding/json"
	"fmt"
	"sort"

	"comtainer/internal/cclang"
)

// FileOrigin classifies where a file in the application image came from —
// the five categories of the paper's image model.
type FileOrigin string

// The origin categories.
const (
	OriginBase    FileOrigin = "base"    // shipped by the base image
	OriginPackage FileOrigin = "package" // installed by the package manager
	OriginBuild   FileOrigin = "build"   // produced by the build process
	OriginData    FileOrigin = "data"    // platform-independent data
	OriginUnknown FileOrigin = "unknown"
)

// FileEntry is one classified file of the application image.
type FileEntry struct {
	Path    string     `json:"path"`
	Origin  FileOrigin `json:"origin"`
	Package string     `json:"package,omitempty"` // owning package
	Node    NodeID     `json:"node,omitempty"`    // producing build-graph node
	Size    int64      `json:"size"`
}

// PackageRef records one installed package of the image.
type PackageRef struct {
	Name    string `json:"name"`
	Version string `json:"version"`
}

// ImageModel represents the structure and content of the application
// image.
type ImageModel struct {
	Architecture string       `json:"architecture"`
	Entrypoint   []string     `json:"entrypoint,omitempty"`
	Files        []FileEntry  `json:"files"`
	Packages     []PackageRef `json:"packages"`
}

// File finds the entry for path.
func (im *ImageModel) File(path string) (FileEntry, bool) {
	for _, f := range im.Files {
		if f.Path == path {
			return f, true
		}
	}
	return FileEntry{}, false
}

// CountByOrigin tallies files per origin class.
func (im *ImageModel) CountByOrigin() map[FileOrigin]int {
	out := map[FileOrigin]int{}
	for _, f := range im.Files {
		out[f.Origin]++
	}
	return out
}

// NodeID identifies a build-graph node; 0 is invalid.
type NodeID int

// NodeKind types the build-graph nodes. The graph is extensible — the
// paper models C/C++/Fortran ecosystems with exactly these kinds.
type NodeKind string

// Node kinds.
const (
	KindSource     NodeKind = "source"
	KindObject     NodeKind = "object"
	KindArchive    NodeKind = "archive"
	KindSharedObj  NodeKind = "shared-object"
	KindExecutable NodeKind = "executable"
	KindOther      NodeKind = "other"
)

// CompilationModel captures how one node was generated: the recorded
// command line plus its execution context. Per the paper, .o/.so nodes
// carry structural GCC command-line data; .a nodes represent archive
// contents.
type CompilationModel struct {
	Kind string   `json:"kind"` // "cc" or "ar"
	Argv []string `json:"argv"`
	Cwd  string   `json:"cwd"`
	Seq  int      `json:"seq"` // recording order, identifies the invocation
}

// CC parses the command as a compiler-driver invocation.
func (cm *CompilationModel) CC() (*cclang.Command, error) {
	if cm.Kind != "cc" {
		return nil, fmt.Errorf("model: node command is %q, not a compilation", cm.Kind)
	}
	return cclang.Parse(cm.Argv)
}

// Clone deep-copies the compilation model.
func (cm *CompilationModel) Clone() *CompilationModel {
	if cm == nil {
		return nil
	}
	c := *cm
	c.Argv = append([]string(nil), cm.Argv...)
	return &c
}

// Node is one vertex of the build graph.
type Node struct {
	ID   NodeID            `json:"id"`
	Kind NodeKind          `json:"kind"`
	Path string            `json:"path"` // absolute path in the build container
	Deps []NodeID          `json:"deps,omitempty"`
	Cmd  *CompilationModel `json:"cmd,omitempty"` // nil for sources
}

// BuildGraph is the DAG of build-process data transformations.
type BuildGraph struct {
	Nodes  []*Node `json:"nodes"`
	byPath map[string]NodeID
}

// NewBuildGraph returns an empty graph.
func NewBuildGraph() *BuildGraph {
	return &BuildGraph{byPath: make(map[string]NodeID)}
}

// reindex rebuilds the path index (after JSON decoding).
func (g *BuildGraph) reindex() {
	g.byPath = make(map[string]NodeID, len(g.Nodes))
	for _, n := range g.Nodes {
		g.byPath[n.Path] = n.ID
	}
}

// Node returns the node with the given id.
func (g *BuildGraph) Node(id NodeID) (*Node, bool) {
	i := int(id) - 1
	if i < 0 || i >= len(g.Nodes) {
		return nil, false
	}
	return g.Nodes[i], true
}

// ByPath returns the node producing (or representing) path.
func (g *BuildGraph) ByPath(path string) (*Node, bool) {
	id, ok := g.byPath[path]
	if !ok {
		return nil, false
	}
	return g.Node(id)
}

// Len returns the number of nodes.
func (g *BuildGraph) Len() int { return len(g.Nodes) }

// AddSource registers a source node for path, reusing an existing node.
func (g *BuildGraph) AddSource(path string) *Node {
	if n, ok := g.ByPath(path); ok {
		return n
	}
	n := &Node{ID: NodeID(len(g.Nodes) + 1), Kind: KindSource, Path: path}
	g.Nodes = append(g.Nodes, n)
	g.byPath[path] = n.ID
	return n
}

// AddProduct registers a node produced by cmd from deps. Re-generating an
// existing path (e.g. recompilation) replaces its command and deps.
func (g *BuildGraph) AddProduct(path string, kind NodeKind, cmd *CompilationModel, deps []NodeID) *Node {
	if n, ok := g.ByPath(path); ok {
		n.Kind = kind
		n.Cmd = cmd
		n.Deps = deps
		return n
	}
	n := &Node{ID: NodeID(len(g.Nodes) + 1), Kind: kind, Path: path, Cmd: cmd, Deps: deps}
	g.Nodes = append(g.Nodes, n)
	g.byPath[path] = n.ID
	return n
}

// Sources returns all source nodes, sorted by path.
func (g *BuildGraph) Sources() []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if n.Kind == KindSource {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Products returns all non-source nodes in insertion order.
func (g *BuildGraph) Products() []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		if n.Kind != KindSource {
			out = append(out, n)
		}
	}
	return out
}

// Validate checks structural invariants: IDs are dense, dependencies
// exist, products have commands, and the graph is acyclic.
func (g *BuildGraph) Validate() error {
	for i, n := range g.Nodes {
		if int(n.ID) != i+1 {
			return fmt.Errorf("model: node %d has id %d", i, n.ID)
		}
		if n.Kind != KindSource && n.Cmd == nil {
			return fmt.Errorf("model: product node %s has no command", n.Path)
		}
		if n.Kind == KindSource && len(n.Deps) > 0 {
			return fmt.Errorf("model: source node %s has dependencies", n.Path)
		}
		for _, d := range n.Deps {
			if _, ok := g.Node(d); !ok {
				return fmt.Errorf("model: node %s depends on missing node %d", n.Path, d)
			}
		}
	}
	if _, err := g.Topo(); err != nil {
		return err
	}
	return nil
}

// Topo returns the nodes in a topological order (dependencies first), or
// an error if the graph has a cycle.
func (g *BuildGraph) Topo() ([]*Node, error) {
	state := make(map[NodeID]int, len(g.Nodes)) // 0 new, 1 visiting, 2 done
	var order []*Node
	var visit func(n *Node) error
	visit = func(n *Node) error {
		switch state[n.ID] {
		case 2:
			return nil
		case 1:
			return fmt.Errorf("model: build graph cycle through %s", n.Path)
		}
		state[n.ID] = 1
		for _, d := range n.Deps {
			dep, ok := g.Node(d)
			if !ok {
				return fmt.Errorf("model: missing node %d", d)
			}
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[n.ID] = 2
		order = append(order, n)
		return nil
	}
	for _, n := range g.Nodes {
		if err := visit(n); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// Clone deep-copies the graph so adapters can transform an independent
// copy (paper §4.2: adapters "operate on independent copies of the
// process models").
func (g *BuildGraph) Clone() *BuildGraph {
	out := NewBuildGraph()
	for _, n := range g.Nodes {
		c := &Node{
			ID:   n.ID,
			Kind: n.Kind,
			Path: n.Path,
			Deps: append([]NodeID(nil), n.Deps...),
			Cmd:  n.Cmd.Clone(),
		}
		out.Nodes = append(out.Nodes, c)
		out.byPath[c.Path] = c.ID
	}
	return out
}

// Models bundles the three process models plus the source and product
// bookkeeping the cache layer needs.
type Models struct {
	Image ImageModel  `json:"image"`
	Graph *BuildGraph `json:"graph"`
	// SourcePaths lists build-container files the cache layer must carry.
	SourcePaths []string `json:"sourcePaths"`
	// Installed maps dist-image paths to the build-container product path
	// they were copied from (how rebuilt artifacts find their way back).
	Installed map[string]string `json:"installed"`
	// BuildISA records which ISA the recorded build targeted.
	BuildISA string `json:"buildISA"`
	// Distribution records the form the cached build inputs take:
	// "source" (default) or "ir" (compiler bitcode, paper §4.6). IR-mode
	// images are locked to their package versions and their ISA.
	Distribution string `json:"distribution,omitempty"`
}

// Distribution forms.
const (
	DistSource = "source"
	DistIR     = "ir"
)

// IRLocked reports whether the models came from an IR-mode cache, which
// pins package versions (API-only compatibility is not enough once
// compiled) and the build ISA.
func (m *Models) IRLocked() bool { return m.Distribution == DistIR }

// Clone deep-copies the models.
func (m *Models) Clone() *Models {
	out := &Models{
		Image:        m.Image,
		Graph:        m.Graph.Clone(),
		SourcePaths:  append([]string(nil), m.SourcePaths...),
		Installed:    make(map[string]string, len(m.Installed)),
		BuildISA:     m.BuildISA,
		Distribution: m.Distribution,
	}
	out.Image.Files = append([]FileEntry(nil), m.Image.Files...)
	out.Image.Packages = append([]PackageRef(nil), m.Image.Packages...)
	out.Image.Entrypoint = append([]string(nil), m.Image.Entrypoint...)
	for k, v := range m.Installed {
		out.Installed[k] = v
	}
	return out
}

// Marshal serializes the models as compact JSON (the document ships
// inside every extended image, so bytes matter).
func (m *Models) Marshal() ([]byte, error) {
	b, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("model: encoding models: %w", err)
	}
	return b, nil
}

// Unmarshal decodes models from JSON and revalidates the graph.
func Unmarshal(data []byte) (*Models, error) {
	var m Models
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("model: decoding models: %w", err)
	}
	if m.Graph == nil {
		m.Graph = NewBuildGraph()
	}
	m.Graph.reindex()
	if err := m.Graph.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}
