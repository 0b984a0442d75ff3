"""Storage substrate: disk models, buffer cache, block file system, SCSI path."""

from .cache import BufferCache, CacheStats
from .disk import Disk
from .filesystem import (
    FileExists,
    FileNotFound,
    FileSystemError,
    LocalFileSystem,
)
from .models import DISK_CATALOG, FIGURE_5_6_DISKS, DiskSpec
from .raid import RaidArray
from .tape import DAT_DDS1, TapeDrive, TapeSpec
from .scsi import ScsiMode, make_scsi_filesystem

__all__ = [
    "Disk",
    "DiskSpec",
    "DISK_CATALOG",
    "FIGURE_5_6_DISKS",
    "BufferCache",
    "CacheStats",
    "LocalFileSystem",
    "FileSystemError",
    "FileNotFound",
    "FileExists",
    "ScsiMode",
    "make_scsi_filesystem",
    "RaidArray",
    "TapeDrive",
    "TapeSpec",
    "DAT_DDS1",
]
