// Command comtainer runs the coMtainer image workflow, one verb a step;
// build, rebuild and redirect are the paper's coMtainer-build,
// coMtainer-rebuild and coMtainer-redirect:
//
//	build     the user side: a dist image and its extended image (+coM)
//	rebuild   the system side: the extended image rebuilt for a system (+coMre)
//	redirect  the system side: the rebuilt artifacts on the system's runtime
//	run       run an image on a simulated HPC system
//	inspect   list a store's tags, or one image's process models
//	diff      what changed, file by file, between two images
//
// Every verb opens and saves one image store, named by -layout (build's
// -o). A path is an image directory, which `comtainer-registry -data`
// serves at /v2/layout/. http(s)://host/name is a registry repository
// standing for a whole layout: opening it pulls every tag, saving pushes
// every tag, skipping the blobs the registry holds. The handoff:
//
//	comtainer build -app lulesh -o http://registry:5000/user/lulesh
//	comtainer rebuild -layout http://registry:5000/user/lulesh -system x86-64
//	comtainer redirect -layout http://registry:5000/user/lulesh -system x86-64
//
// `comtainer <verb> -h` lists a verb's flags; a usage error exits 2, a
// failure 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/url"
	"os"
	"strings"

	"comtainer/internal/distrib"
	"comtainer/internal/oci"
	"comtainer/internal/registry"
)

// verbs maps each verb to its definition: it declares the verb's flags
// on the set and returns what runs once they are parsed.
var verbs = map[string]func(*flag.FlagSet) func() error{
	"build":    build,
	"rebuild":  rebuild,
	"redirect": redirect,
	"run":      run,
	"inspect":  inspect,
	"diff":     diff,
}

// usage is a verb's synopsis, returned as the error of a bad invocation.
type usage string

func (u usage) Error() string { return string(u) }

func main() {
	if len(os.Args) < 2 || verbs[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, "usage: comtainer build|rebuild|redirect|run|inspect|diff [flags]")
		os.Exit(2)
	}
	name := os.Args[1]
	fs := flag.NewFlagSet("comtainer "+name, flag.ExitOnError)
	runVerb := verbs[name](fs)
	_ = fs.Parse(os.Args[2:]) // ExitOnError: -h exits 0, a bad flag 2
	var synopsis usage
	switch err := runVerb(); {
	case errors.As(err, &synopsis):
		fmt.Fprintf(os.Stderr, "usage: comtainer %s %s\n", name, synopsis)
		os.Exit(2)
	case err != nil:
		fmt.Fprintf(os.Stderr, "comtainer %s: %v\n", name, err)
		os.Exit(1)
	}
}

// open reads the image store ref names: an image directory, or every
// tag of a registry repository.
func open(ref string) (*oci.Repository, error) {
	c, name := registryRepo(ref)
	if c == nil {
		return distrib.LoadLayout(ref)
	}
	tags, err := c.ListTags(context.Background(), name)
	if err != nil {
		return nil, err
	}
	repo := oci.NewRepository()
	for _, tag := range tags {
		if err := c.Pull(context.Background(), repo, name, tag, tag); err != nil {
			return nil, err
		}
	}
	return repo, nil
}

// save writes repo to the image store ref names: an image directory, or
// every tag pushed to a registry repository.
func save(repo *oci.Repository, ref string) error {
	c, name := registryRepo(ref)
	if c == nil {
		return distrib.SaveLayout(repo, ref)
	}
	for _, tag := range repo.Tags() {
		if err := c.Push(context.Background(), repo, tag, name, tag); err != nil {
			return err
		}
	}
	return nil
}

// registryRepo splits an http(s)://host/name reference into a client
// for the registry and the repository name; a path gives a nil client.
func registryRepo(ref string) (*registry.Client, string) {
	u, err := url.Parse(ref)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, ""
	}
	return registry.NewClient(u.Scheme + "://" + u.Host), strings.Trim(u.Path, "/")
}
