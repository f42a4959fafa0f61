package schema

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"chimera/internal/dtype"
)

// Attributes holds the arbitrary additional attributes the schema
// allows on every object, beyond the required ones.
type Attributes map[string]string

// Clone returns an independent copy of a (possibly nil) attribute map.
func (a Attributes) Clone() Attributes {
	if a == nil {
		return nil
	}
	c := make(Attributes, len(a))
	for k, v := range a {
		c[k] = v
	}
	return c
}

// Dataset is the unit of data managed within the virtual data model: a
// logical name bound to a dataset type and a descriptor. A Dataset may
// be purely virtual — defined only by the derivation that can produce
// it — in which case it has no replicas yet.
type Dataset struct {
	// Name is the logical dataset name (LFN), unique within a catalog.
	Name string `json:"name"`
	// Type places the dataset in the three-dimensional type space.
	Type dtype.Type `json:"type"`
	// Descriptor tells transformations how to access the contents; nil
	// for datasets that are purely virtual so far.
	Descriptor Descriptor `json:"-"`
	// CreatedBy names the derivation that produces this dataset, or ""
	// for primary (raw, non-derived) data. The catalog sets it from its
	// derivations' outputs; every write ignores the value a record
	// carries.
	CreatedBy string `json:"createdBy,omitempty"`
	// Epoch counts in-place updates (§8 "update" future work): each
	// update of the dataset by a derivation increments it.
	Epoch int `json:"epoch,omitempty"`
	// Size is the (estimated or actual) size in bytes, 0 if unknown.
	Size int64 `json:"size,omitempty"`
	// Attrs carries user-defined metadata for discovery and annotation.
	Attrs Attributes `json:"attrs,omitempty"`
}

// datasetWire adds the tagged descriptor to the JSON form.
type datasetWire struct {
	Name       string          `json:"name"`
	Type       dtype.Type      `json:"type"`
	Descriptor json.RawMessage `json:"descriptor,omitempty"`
	CreatedBy  string          `json:"createdBy,omitempty"`
	Epoch      int             `json:"epoch,omitempty"`
	Size       int64           `json:"size,omitempty"`
	Attrs      Attributes      `json:"attrs,omitempty"`
}

// MarshalJSON implements json.Marshaler, encoding the descriptor behind
// its kind tag.
func (d Dataset) MarshalJSON() ([]byte, error) {
	desc, err := MarshalDescriptor(d.Descriptor)
	if err != nil {
		return nil, err
	}
	w := datasetWire{
		Name: d.Name, Type: d.Type, CreatedBy: d.CreatedBy,
		Epoch: d.Epoch, Size: d.Size, Attrs: d.Attrs,
	}
	if string(desc) != "null" {
		w.Descriptor = desc
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Dataset) UnmarshalJSON(data []byte) error {
	var w datasetWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	var desc Descriptor
	if len(w.Descriptor) > 0 {
		var err error
		desc, err = UnmarshalDescriptor(w.Descriptor)
		if err != nil {
			return err
		}
	}
	*d = Dataset{
		Name: w.Name, Type: w.Type, Descriptor: desc,
		CreatedBy: w.CreatedBy, Epoch: w.Epoch, Size: w.Size, Attrs: w.Attrs,
	}
	return nil
}

// Validate checks the dataset's required attributes.
func (d Dataset) Validate() error {
	if err := checkLogicalName(d.Name); err != nil {
		return fmt.Errorf("schema: dataset: %w", err)
	}
	if d.Descriptor != nil {
		if err := d.Descriptor.Validate(); err != nil {
			return fmt.Errorf("schema: dataset %q: %w", d.Name, err)
		}
	}
	if d.Size < 0 {
		return fmt.Errorf("schema: dataset %q has negative size", d.Name)
	}
	if d.Epoch < 0 {
		return fmt.Errorf("schema: dataset %q has negative epoch", d.Name)
	}
	return nil
}

// IsVirtual reports whether the dataset currently exists only as a
// recipe (it was declared as derived data and has no descriptor yet).
func (d Dataset) IsVirtual() bool { return d.Descriptor == nil }

// Replica records one physical copy of a dataset at some location.
type Replica struct {
	// ID uniquely identifies the replica within a catalog.
	ID string `json:"id"`
	// Dataset is the logical name of the replicated dataset.
	Dataset string `json:"dataset"`
	// Site is the storage site holding the copy (a site name in the
	// grid substrate, or a vdp:// authority for remote catalogs).
	Site string `json:"site"`
	// PFN is the physical file name / URI at that site.
	PFN string `json:"pfn"`
	// Size in bytes of this physical copy; 0 if unknown.
	Size int64 `json:"size,omitempty"`
	// Epoch is the dataset epoch this replica materializes.
	Epoch int `json:"epoch,omitempty"`
	// ProducedBy is the invocation that wrote this replica, "" if it
	// was registered externally (e.g. primary data staged in).
	ProducedBy string `json:"producedBy,omitempty"`
	// Attrs carries user-defined metadata (checksums, pin state, ...).
	Attrs Attributes `json:"attrs,omitempty"`
}

// Validate checks the replica's required attributes.
func (r Replica) Validate() error {
	if r.ID == "" {
		return fmt.Errorf("schema: replica with empty id")
	}
	if err := checkLogicalName(r.Dataset); err != nil {
		return fmt.Errorf("schema: replica %q: %w", r.ID, err)
	}
	if r.Site == "" {
		return fmt.Errorf("schema: replica %q has empty site", r.ID)
	}
	if r.PFN == "" {
		return fmt.Errorf("schema: replica %q has empty pfn", r.ID)
	}
	if r.Size < 0 {
		return fmt.Errorf("schema: replica %q has negative size", r.ID)
	}
	return nil
}

// Invocation records one execution of a derivation in a specific
// environment and context, closing the provenance chain down to
// physical detail.
type Invocation struct {
	// ID uniquely identifies the invocation within a catalog.
	ID string `json:"id"`
	// Derivation is the ID of the executed derivation.
	Derivation string `json:"derivation"`
	// Site and Host identify where the execution ran.
	Site string `json:"site,omitempty"`
	Host string `json:"host,omitempty"`
	// Start and End bracket the execution in (simulated or wall) time.
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// ExitCode is the process exit status; 0 means success.
	ExitCode int `json:"exitCode"`
	// OS, Arch and Env capture the execution environment.
	OS   string            `json:"os,omitempty"`
	Arch string            `json:"arch,omitempty"`
	Env  map[string]string `json:"env,omitempty"`
	// BytesIn/BytesOut are the volumes staged in and out.
	BytesIn  int64 `json:"bytesIn,omitempty"`
	BytesOut int64 `json:"bytesOut,omitempty"`
	// UsedReplicas maps each input dataset to the replica actually
	// read; ProducedReplicas maps each output dataset to the replica
	// written. Both keep detailed provenance in a replicated world.
	UsedReplicas     map[string]string `json:"usedReplicas,omitempty"`
	ProducedReplicas map[string]string `json:"producedReplicas,omitempty"`
	// Attrs carries additional environment/context detail.
	Attrs Attributes `json:"attrs,omitempty"`
}

// Duration returns the invocation's elapsed time.
func (iv Invocation) Duration() time.Duration { return iv.End.Sub(iv.Start) }

// Succeeded reports whether the invocation completed with exit code 0.
func (iv Invocation) Succeeded() bool { return iv.ExitCode == 0 }

// Validate checks the invocation's required attributes.
func (iv Invocation) Validate() error {
	if iv.ID == "" {
		return fmt.Errorf("schema: invocation with empty id")
	}
	if iv.Derivation == "" {
		return fmt.Errorf("schema: invocation %q has empty derivation", iv.ID)
	}
	if iv.End.Before(iv.Start) {
		return fmt.Errorf("schema: invocation %q ends before it starts", iv.ID)
	}
	return nil
}

// checkLogicalName validates dataset and transformation names: they
// appear in VDL, vdp:// URLs and file paths, so keep them printable and
// free of structural characters.
func checkLogicalName(name string) error {
	if name == "" {
		return fmt.Errorf("empty logical name")
	}
	if strings.ContainsAny(name, " \t\n\"${}@") {
		return fmt.Errorf("logical name %q contains reserved characters", name)
	}
	return nil
}
